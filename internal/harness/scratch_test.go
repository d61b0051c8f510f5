package harness

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"wavescalar/internal/asm"
	"wavescalar/internal/cfgir"
	"wavescalar/internal/wavec"
	"wavescalar/internal/workloads"
)

// TestCompileSourceScratchIsResultNeutral: the compile passes keep their
// working state where it outlives a call — cfgir's optimizer scratch and
// builder buffer, wavec's emit buffer, each in a sync.Pool — so what a
// compile returns must not depend on what a pool last held or on who else
// is using it. The kernels and CorpusSpecs(100, 1), at O0 and O1, compiled
// with the pools cold, right after twolf's IR and binary have grown them,
// and two at a time on two goroutines, print the same IR, MemOptStats,
// Chains and three binaries. Nothing returned shares a pool's storage
// either: the cold results print as they did after every later compile has
// reused the pools.
func TestCompileSourceScratchIsResultNeutral(t *testing.T) {
	progs := compileCorpus(100)
	if testing.Short() {
		progs = progs[:15]
	}
	type result struct {
		c  *Compiled
		ir *cfgir.Program
		st cfgir.MemOptStats
	}
	compile := func(name string, opt int) (result, error) {
		src := workloads.ByName(name).Src
		c, err := CompileSource(name, src, CompileOptions{Unroll: 4, OptLevel: opt})
		if err != nil {
			return result{}, err
		}
		ir, st, _, err := cfgir.FromSource(src, 4, opt)
		return result{c, ir, st}, err
	}
	text := func(r result) string {
		return fmt.Sprintf("%s\nmemopt %+v (FromSource %+v) chains %+v\n%s\n%s\n%s", r.ir, r.c.MemOpt, r.st, r.c.Chains,
			asm.Print(r.c.Wave), asm.Print(r.c.WaveSel), asm.Print(r.c.WaveNoUn))
	}
	n := 2 * len(progs)
	job := func(i int) (string, int) { return progs[i/2], i % 2 }

	cold := make([]result, n)
	want := make([]string, n)
	for i := range n {
		name, opt := job(i)
		runtime.GC() // a sync.Pool keeps nothing through two collections
		runtime.GC()
		r, err := compile(name, opt)
		if err != nil {
			t.Fatalf("%s O%d: %v", name, opt, err)
		}
		cold[i], want[i] = r, text(r)
	}

	// twolf's largest function is the biggest the corpus has: building,
	// optimizing and lowering it grows every pooled table.
	twolf := workloads.ByName("twolf").Src
	for i := range n {
		name, opt := job(i)
		ir, _, _, err := cfgir.FromSource(twolf, 4, 1)
		if err == nil {
			_, err = wavec.Compile(ir, wavec.Options{IfConvert: true})
		}
		if err != nil {
			t.Fatal(err)
		}
		r, err := compile(name, opt)
		if err != nil {
			t.Fatalf("%s O%d: %v", name, opt, err)
		}
		if text(r) != want[i] {
			t.Errorf("%s O%d: compiled right after twolf, it differs from a cold compile", name, opt)
		}
	}

	// One goroutine walks the list forward and the other backward, so each
	// compile meets pools the other left after programs of every size.
	var wg sync.WaitGroup
	for _, backward := range []bool{false, true} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range n {
				i := k
				if backward {
					i = n - 1 - k
				}
				name, opt := job(i)
				r, err := compile(name, opt)
				if err != nil {
					t.Errorf("%s O%d: %v", name, opt, err)
					return
				}
				if text(r) != want[i] {
					t.Errorf("%s O%d: compiled beside another compile, it differs from a cold compile", name, opt)
				}
			}
		}()
	}
	wg.Wait()

	for i, r := range cold {
		if text(r) != want[i] {
			name, opt := job(i)
			t.Errorf("%s O%d: a cold compile's result changed while later compiles ran: it shares a pool's storage", name, opt)
		}
	}
}
