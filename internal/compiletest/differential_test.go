package compiletest

import (
	"fmt"
	"testing"
)

// TestDifferentialSerialVsParallel is the compiler equivalence suite: 200
// randomized IXP workloads, each compiled by the serial reference
// implementation and by the parallel pipeline on separate but identical
// controllers. For every case the canonical classifier dumps and the
// fabric rule streams must be byte-identical; cases with BGP bursts also
// replay the same update trace through both controllers and check the
// incremental fast-path output, the post-burst recompilation, and the
// CompileFast-vs-full forwarding semantics. Every participant's Loc-RIB
// must also equal the route server's naive per-viewer oracle, after the
// load and after the bursts.
func TestDifferentialSerialVsParallel(t *testing.T) {
	for i := 0; i < CorpusSize; i++ {
		t.Run(fmt.Sprintf("case%03d", i), func(t *testing.T) {
			w, bursts := CorpusWorkload(i)

			serial, err := Build(w)
			if err != nil {
				t.Fatal(err)
			}
			par, err := Build(w)
			if err != nil {
				t.Fatal(err)
			}

			cs := serial.Compile(true)
			cp := par.Compile(false)
			if err := DiffText("initial compile", cs, cp); err != nil {
				t.Fatal(err)
			}
			if err := DiffLines("initial rule stream", serial.Rules.Log(), par.Rules.Log()); err != nil {
				t.Fatal(err)
			}
			if err := par.VerifyTables(); err != nil {
				t.Fatalf("initial compile: %v", err)
			}
			if err := CheckLocRIB(par.Ctrl); err != nil {
				t.Fatalf("after load: %v", err)
			}
			if err := par.VerifyEngine(4, 6); err != nil {
				t.Fatalf("initial compile: engine divergence: %v", err)
			}

			if bursts == 0 {
				if err := DiffOutcomes("forwarding", Outcomes(serial.Ctrl, 4, 6), Outcomes(par.Ctrl, 4, 6)); err != nil {
					t.Fatal(err)
				}
				return
			}

			// Same trace content on both sides: instances are identical, so
			// Trace() synthesizes identical event streams.
			fastS := serial.Replay(serial.Trace(bursts*3, w.Seed+99))
			fastP := par.Replay(par.Trace(bursts*3, w.Seed+99))
			if fastS != fastP {
				t.Fatalf("fast-band rules diverged: serial %d, parallel %d", fastS, fastP)
			}
			if err := DiffLines("burst rule stream", serial.Rules.Log(), par.Rules.Log()); err != nil {
				t.Fatal(err)
			}
			if err := par.VerifyTables(); err != nil {
				t.Fatalf("after burst replay: %v", err)
			}
			if err := CheckLocRIB(par.Ctrl); err != nil {
				t.Fatalf("after burst replay: %v", err)
			}
			if err := par.VerifyEngine(4, 6); err != nil {
				t.Fatalf("after burst replay: engine divergence: %v", err)
			}

			// CompileFast semantics: forwarding outcomes with the fast band
			// active must survive a from-scratch recompilation untouched.
			before := Outcomes(par.Ctrl, 4, 6)
			cs = serial.Compile(true)
			cp = par.Compile(false)
			if err := DiffText("post-burst compile", cs, cp); err != nil {
				t.Fatal(err)
			}
			after := Outcomes(par.Ctrl, 4, 6)
			if err := DiffOutcomes("fast-vs-full forwarding", before, after); err != nil {
				t.Fatal(err)
			}
			if err := DiffOutcomes("forwarding", Outcomes(serial.Ctrl, 4, 6), after); err != nil {
				t.Fatal(err)
			}
			if err := par.VerifyTables(); err != nil {
				t.Fatalf("post-burst recompile: %v", err)
			}
			if err := par.VerifyEngine(4, 6); err != nil {
				t.Fatalf("post-burst recompile: engine divergence: %v", err)
			}
		})
	}
}
