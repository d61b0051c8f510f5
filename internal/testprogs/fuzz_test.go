package testprogs

import (
	"testing"

	"wavescalar/internal/cfgir"
	"wavescalar/internal/lang"
)

// TestGeneratedProgramsAreValid: every generated program must lex, parse,
// check, build, and evaluate within a modest fuel budget.
func TestGeneratedProgramsAreValid(t *testing.T) {
	skipped := 0
	for seed := int64(0); seed < 300; seed++ {
		src := Generate(seed)
		f, err := lang.ParseAndCheck(src)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		ev := lang.NewEvaluator(f, 5_000_000)
		if _, err := ev.Run(); err != nil {
			// Nested loops occasionally compound into very long runs;
			// those seeds are filtered, not failures — but they must be
			// rare.
			if err == lang.ErrOutOfFuel {
				skipped++
				continue
			}
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
	if skipped > 30 {
		t.Fatalf("%d/300 seeds exceeded the step budget; generator bounds too loose", skipped)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	if Generate(42) != Generate(42) {
		t.Fatal("generator is not deterministic")
	}
	if Generate(1) == Generate(2) {
		t.Fatal("distinct seeds produced identical programs")
	}
}
