package census

import "testing"

// BenchmarkGenerate times cold generation of a named dataset at seed 1: the
// state lattice layout, rook contiguity read off the lattice and the
// attribute draws and transform, the work a dataset-cache miss pays before
// any solve. The sizes are the datasets the end-to-end benchmark's
// workloads generate.
func BenchmarkGenerate(b *testing.B) {
	for _, name := range []string{"2k", "8k", "20k", "30k1", "50k1"} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NamedSeeded(name, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
