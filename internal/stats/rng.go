// Package stats provides the statistical primitives shared across the
// statistical-simulation framework: deterministic random number
// generation, bounded histograms, cumulative-distribution samplers and
// the error metrics used throughout the paper's evaluation (coefficient
// of variation, absolute prediction error, relative prediction error).
package stats

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (xoshiro256** by Blackman and Vigna). Every stochastic step in the
// framework draws from an explicitly seeded RNG so that profiles,
// synthetic traces and experiments are reproducible bit-for-bit.
//
// The zero value is not usable; construct with NewRNG.
type RNG struct {
	// Four named words rather than an array: scalar field accesses keep
	// Uint64 inside the compiler's inlining budget (array indexing is
	// charged enough to push it over).
	s0, s1, s2, s3 uint64
}

// NewRNG returns a generator seeded from seed using splitmix64, which
// guarantees a well-mixed non-zero internal state for any seed value.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	// splitmix64 to expand the seed into 256 bits of state.
	x := seed
	for i := 0; i < 4; i++ {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		switch i {
		case 0:
			r.s0 = z
		case 1:
			r.s1 = z
		case 2:
			r.s2 = z
		case 3:
			r.s3 = z
		}
	}
	return r
}

// Uint64 returns the next 64 random bits. The xoshiro step is written
// with the rotations expanded and the state in locals so the method
// fits the compiler's inlining budget — it sits on the innermost
// random-walk sampling path.
func (r *RNG) Uint64() uint64 {
	s1 := r.s1
	x := s1 * 5
	x = (x<<7 | x>>57) * 9
	s2 := r.s2 ^ r.s0
	s3 := r.s3 ^ s1
	r.s1 = s1 ^ s2
	r.s0 ^= s3
	r.s2 = s2 ^ s1<<17
	r.s3 = s3<<45 | s3>>19
	return x
}

// Skip advances the generator by n steps: it leaves r in exactly the
// state n Uint64 calls would (each Float64 and Intn call is one step),
// without computing the discarded outputs.
func (r *RNG) Skip(n int) {
	s0, s1, s2, s3 := r.s0, r.s1, r.s2, r.s3
	for ; n > 0; n-- {
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = s3<<45 | s3>>19
	}
	r.s0, r.s1, r.s2, r.s3 = s0, s1, s2, s3
}

// Jump is an advance of the generator by a fixed number of steps, made
// in constant time. The xoshiro state transition is linear over GF(2),
// so n steps are one 256×256 bit matrix; a Jump holds it as XOR tables
// over the state's 64 nibbles (32 KiB), and applying it reads one table
// row per nibble however large n is.
type Jump struct {
	t [64][16][4]uint64
}

// NewJump returns the advance by n steps: r.Jump(NewJump(n)) leaves r in
// the state r.Skip(n) would. It builds the matrix's 256 columns with
// Skip, so it costs 256 Skip(n) calls.
func NewJump(n int) *Jump {
	j := new(Jump)
	for bit := 0; bit < 256; bit++ {
		var col [4]uint64
		col[bit/64] = 1 << (bit % 64)
		r := RNG{col[0], col[1], col[2], col[3]}
		r.Skip(n)
		col = [4]uint64{r.s0, r.s1, r.s2, r.s3}
		// Row v of a nibble's table is the XOR of the columns of v's set
		// bits; the rows whose highest bit is this one extend rows built
		// before it.
		t, b := &j.t[bit/4], bit%4
		for v := 1 << b; v < 2<<b; v++ {
			for w := range col {
				t[v][w] = t[v&^(1<<b)][w] ^ col[w]
			}
		}
	}
	return j
}

// Jump advances r by j's step count.
func (r *RNG) Jump(j *Jump) {
	var s0, s1, s2, s3 uint64
	for w, x := range [4]uint64{r.s0, r.s1, r.s2, r.s3} {
		for i := range 16 {
			e := &j.t[16*w+i][x&15]
			s0 ^= e[0]
			s1 ^= e[1]
			s2 ^= e[2]
			s3 ^= e[3]
			x >>= 4
		}
	}
	r.s0, r.s1, r.s2, r.s3 = s0, s1, s2, s3
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a normally distributed float64 with mean 0 and
// standard deviation 1, using the polar Box-Muller method.
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// Split derives an independent generator from r; the derived stream is a
// deterministic function of r's current state and the supplied salt, so
// sub-components can be given private streams without consuming an
// unpredictable amount of the parent stream.
func (r *RNG) Split(salt uint64) *RNG {
	return NewRNG(r.Uint64() ^ salt*0x9e3779b97f4a7c15)
}
