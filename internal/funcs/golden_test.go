package funcs

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// catalogGolden is the SHA-256 of every catalog function's float64 bits
// on goldenMultisets, recorded from the entry-table Args layout that
// predates the value/count layout and the Set view.
const catalogGolden = "007b0daa9c2dcde51f8ec35d647af8a6f4709fdaceabb8a733f0a0543361c214"

// goldenMultisets returns seeded multisets with fractional values, very
// small and very large magnitudes, negatives and repeats; every third one
// holds the value 1, which the freq, Φ and mult catalog entries ask about.
func goldenMultisets() [][]float64 {
	rng := rand.New(rand.NewSource(26))
	pool := []float64{0.1, 0.7, 2.3, 1.9, 0.3, 3.7, 1e-9, 1e9, -4.25, 1, 0.5, 1.0 / 3}
	var out [][]float64
	for i := 0; i < 64; i++ {
		vals := make([]float64, 1+rng.Intn(24))
		for j := range vals {
			switch rng.Intn(3) {
			case 0:
				vals[j] = pool[rng.Intn(len(pool))]
			case 1:
				vals[j] = rng.Float64()*20 - 5
			default:
				if j > 0 {
					vals[j] = vals[rng.Intn(j)] // a repeat
				} else {
					vals[j] = rng.ExpFloat64()
				}
			}
		}
		if i%3 == 0 {
			vals = append(vals, 1)
		}
		out = append(out, vals)
	}
	return out
}

// TestCatalogGolden pins every catalog function's value, bit for bit, on
// seeded multisets built each way a multiset can be: NewArgs over a
// shuffled vector; CountArgs over shuffled entries, one per occurrence
// with empty ones mixed in, and over the ascending entries of the result;
// Scale of both; and — for the set-based functions — Set over the
// ascending distinct values. A one-ulp move in any f on any of them
// changes the hash.
func TestCatalogGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	h := sha256.New()
	put := func(x float64) {
		bits := math.Float64bits(x)
		if math.IsNaN(x) {
			bits = math.Float64bits(math.NaN()) // one NaN, whatever its payload
		}
		h.Write(binary.LittleEndian.AppendUint64(nil, bits))
	}
	evals := 0
	for _, vals := range goldenMultisets() {
		shuffled := slices.Clone(vals)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		var entries []Entry
		for _, v := range shuffled {
			// One entry per occurrence, and an empty one now and then:
			// CountArgs must merge the repeats and drop the empties.
			if rng.Intn(4) == 0 {
				entries = append(entries, Entry{Value: v, Count: 0})
			}
			entries = append(entries, Entry{Value: v, Count: 1})
		}
		rng.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
		byVals, byCounts := NewArgs(shuffled...), CountArgs(entries)
		built := []*Args{byVals, byCounts, CountArgs(byCounts.Entries()), byVals.Scale(2), byCounts.Scale(3)}
		distinct := slices.Clone(vals)
		slices.Sort(distinct)
		distinct = slices.Compact(distinct)
		set := Set(distinct)
		for _, f := range Catalog() {
			for _, a := range built {
				put(f.Eval(a))
				evals++
			}
			if f.Class == SetBased {
				put(f.Eval(&set))
				evals++
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != catalogGolden {
		t.Fatalf("catalog golden over %d evaluations = %s, want %s", evals, got, catalogGolden)
	}
}
