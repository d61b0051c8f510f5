package testprogs

import (
	"testing"

	"wavescalar/internal/cfgir"
	"wavescalar/internal/lang"
)

// TestCorpusFamilyValidity: every family × 200 seeds must parse,
// type-check, build through the IR pipeline, and terminate within a
// bounded evaluator budget — the generator-side half of the corpus
// guarantee (the harness corpus tests add the engine-agreement half).
func TestCorpusFamilyValidity(t *testing.T) {
	for _, fam := range Families() {
		fam := fam
		t.Run(fam, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < 200; seed++ {
				spec := CorpusSpec{Family: fam, Seed: mixSeed(77, seed), Size: 1}
				src, err := GenerateSpec(spec)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				f, err := lang.ParseAndCheck(src)
				if err != nil {
					t.Fatalf("seed %d: %v\n%s", seed, err, src)
				}
				if _, err := lang.NewEvaluator(f, 2*mixedStepBudget).Run(); err != nil {
					t.Fatalf("seed %d: evaluator: %v\n%s", seed, err, src)
				}
				p, err := cfgir.Build(f)
				if err != nil {
					t.Fatalf("seed %d: build: %v\n%s", seed, err, src)
				}
				for _, fn := range p.Funcs {
					fn.Compact()
				}
				p.Optimize()
			}
		})
	}
}

// TestGenerateSpecDeterministic: a spec reproduces its program
// bit-for-bit, and distinct seeds diverge.
func TestGenerateSpecDeterministic(t *testing.T) {
	for _, fam := range Families() {
		a, err := GenerateSpec(CorpusSpec{Family: fam, Seed: 42, Size: 1})
		if err != nil {
			t.Fatal(err)
		}
		b, err := GenerateSpec(CorpusSpec{Family: fam, Seed: 42, Size: 1})
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%s: seed 42 not reproducible", fam)
		}
		c, err := GenerateSpec(CorpusSpec{Family: fam, Seed: 43, Size: 1})
		if err != nil {
			t.Fatal(err)
		}
		if a == c {
			t.Errorf("%s: seeds 42 and 43 produced identical programs", fam)
		}
	}
	if _, err := GenerateSpec(CorpusSpec{Family: "no-such-family", Seed: 1}); err == nil {
		t.Error("unknown family accepted")
	}
}

// TestCorpusSpecsShape: the derived corpus is family-balanced, seeded
// reproducibly, and sensitive to the base seed.
func TestCorpusSpecsShape(t *testing.T) {
	specs := CorpusSpecs(10, 1)
	if len(specs) != 10 {
		t.Fatalf("got %d specs", len(specs))
	}
	fams := Families()
	for i, s := range specs {
		if s.Family != fams[i%len(fams)] {
			t.Errorf("spec %d: family %q, want %q", i, s.Family, fams[i%len(fams)])
		}
	}
	again := CorpusSpecs(10, 1)
	for i := range specs {
		if specs[i] != again[i] {
			t.Fatalf("CorpusSpecs not reproducible at %d", i)
		}
	}
	other := CorpusSpecs(10, 2)
	if specs[0].Seed == other[0].Seed {
		t.Error("base seed has no effect on derived seeds")
	}
}

func TestSpecNameRoundTrip(t *testing.T) {
	cases := []CorpusSpec{
		{Family: "pointer", Seed: 42, Size: 1},
		{Family: "mixed", Seed: -7, Size: 1},
		{Family: "pipeline", Seed: 123456789, Size: 3},
	}
	for _, want := range cases {
		got, ok := ParseSpecName(want.Name())
		if !ok {
			t.Fatalf("ParseSpecName(%q) failed", want.Name())
		}
		if got != want {
			t.Errorf("round trip %q: got %+v want %+v", want.Name(), got, want)
		}
	}
	for _, bad := range []string{"", "gen", "gen:pointer", "gen:nope:1", "lu",
		"gen:pointer:x", "gen:pointer:1:9", "gen:pointer:1:2:3"} {
		if _, ok := ParseSpecName(bad); ok {
			t.Errorf("ParseSpecName(%q) accepted", bad)
		}
	}
	if name := (CorpusSpec{Family: "pointer", Seed: 5}).Name(); name != "gen:pointer:5" {
		t.Errorf("size-1 name %q should omit the size", name)
	}
}
