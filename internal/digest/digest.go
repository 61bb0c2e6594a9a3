// Package digest is the repo's one FNV-64a. Digest is the incremental
// accumulator behind crossing argument/result digests, the chain-log
// checksum chain and the cas page store; Sum hashes whole buffers (guest
// RAM slabs) through hash/fnv. Both produce the same value for the same
// bytes.
package digest

import "hash/fnv"

// Digest is an incremental FNV-64a accumulator used to summarise bytes
// without retaining them. The zero value is NOT ready to use; start
// from New.
type Digest uint64

// Prime is the FNV-64 prime.
const Prime = 1099511628211

const offset Digest = 14695981039346656037

// New returns the FNV-64a offset basis.
func New() Digest { return offset }

// Bytes folds a byte slice into the digest.
func (d Digest) Bytes(p []byte) Digest {
	for _, b := range p {
		d = (d ^ Digest(b)) * Prime
	}
	return d
}

// U64 folds a 64-bit value (little-endian) into the digest.
func (d Digest) U64(v uint64) Digest {
	for i := 0; i < 8; i++ {
		d = (d ^ Digest(byte(v))) * Prime
		v >>= 8
	}
	return d
}

// Str folds a string into the digest.
func (d Digest) Str(s string) Digest {
	for i := 0; i < len(s); i++ {
		d = (d ^ Digest(s[i])) * Prime
	}
	return d
}

// Sum returns the FNV-64a of bufs hashed back to back: the RAM hash.
// Every per-memslot hash in the repo (session footers, snapshots,
// migration checks, the E8/E9 digests) is Sum over the slot's bytes.
func Sum(bufs ...[]byte) uint64 {
	h := fnv.New64a()
	for _, b := range bufs {
		h.Write(b)
	}
	return h.Sum64()
}
