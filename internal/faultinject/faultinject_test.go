package faultinject

import (
	"strings"
	"testing"

	"fpint/internal/isa"
)

func TestDecideIsPureFunctionOfSeedAndSeq(t *testing.T) {
	a := NewPlan(Config{Seed: 7, Kind: KindAny, Rate: 0.05})
	b := NewPlan(Config{Seed: 7, Kind: KindAny, Rate: 0.05})
	for seq := int64(0); seq < 5000; seq++ {
		ka := a.Decide(seq, isa.ADD, true)
		kb := b.Decide(seq, isa.ADD, true)
		if ka != kb {
			t.Fatalf("seq %d: plans with the same seed disagree: %v vs %v", seq, ka, kb)
		}
	}
}

func TestFiredSeqNeverRefaults(t *testing.T) {
	p := NewPlan(Config{Seed: 1, Kind: KindRegBitFlip, Rate: 1})
	if k := p.Decide(42, isa.ADD, true); k != KindRegBitFlip {
		t.Fatalf("rate-1 decide = %v, want reg-bitflip", k)
	}
	// Replay of the same dynamic instance: parity passes, no second fault.
	if k := p.Decide(42, isa.ADD, true); k != KindNone {
		t.Fatalf("replayed instance re-faulted: %v", k)
	}
}

func TestKindApplicability(t *testing.T) {
	has := func(ks []Kind, want Kind) bool {
		for _, k := range ks {
			if k == want {
				return true
			}
		}
		return false
	}
	if ks := applicable(isa.SW, false); len(ks) != 0 {
		t.Errorf("store with no destination should admit no faults, got %v", ks)
	}
	if ks := applicable(isa.CP2INT, true); !has(ks, KindCopyCorrupt) {
		t.Errorf("CP2INT must admit copy-corrupt, got %v", ks)
	}
	if ks := applicable(isa.ADD, true); has(ks, KindCopyCorrupt) || has(ks, KindWritebackDrop) {
		t.Errorf("plain INT add admits FPa-only kinds: %v", ks)
	}
	if ks := applicable(isa.ADDA, true); !has(ks, KindWritebackDrop) || !has(ks, KindWritebackDelay) {
		t.Errorf("FPa add must admit writeback faults, got %v", ks)
	}
	if ks := applicable(isa.BNEZ, false); has(ks, KindWrongDispatch) {
		t.Errorf("control op admits wrong-dispatch: %v", ks)
	}
}

func TestKindFilterRespectsApplicability(t *testing.T) {
	// A copy-corrupt-only plan must never fault a plain ADD even at rate 1.
	p := NewPlan(Config{Seed: 3, Kind: KindCopyCorrupt, Rate: 1})
	for seq := int64(0); seq < 100; seq++ {
		if k := p.Decide(seq, isa.ADD, true); k != KindNone {
			t.Fatalf("copy-corrupt plan faulted an ADD: %v", k)
		}
	}
	if k := p.Decide(200, isa.CP2INT, true); k != KindCopyCorrupt {
		t.Fatalf("copy-corrupt plan skipped a CP2INT: %v", k)
	}
}

func TestRecoveryCosts(t *testing.T) {
	p := NewPlan(Config{Seed: 1, Rate: 1}) // defaults: flush 5, delay 8
	if got := p.Recovery(KindRegBitFlip, 3); got != 8 {
		t.Errorf("flush recovery = %d, want penalty+lat = 8", got)
	}
	if got := p.Recovery(KindWritebackDelay, 3); got != 8 {
		t.Errorf("delay recovery = %d, want DelayCycles = 8", got)
	}
	if KindWritebackDelay.Flushes() || !KindRegBitFlip.Flushes() || KindNone.Flushes() {
		t.Error("Flushes classification wrong")
	}
}

func TestTraceStringAndSummary(t *testing.T) {
	p := NewPlan(Config{Seed: 1, Rate: 1})
	p.Record(Fault{Seq: 5, PC: 2, Op: isa.ADDA, Kind: KindWritebackDrop, Cycle: 10, Recovery: 6})
	p.Record(Fault{Seq: 9, PC: 4, Op: isa.CP2INT, Kind: KindCopyCorrupt, Cycle: 20, Recovery: 7})
	ts := p.TraceString()
	if !strings.Contains(ts, "seq=5 pc=2") || !strings.Contains(ts, "kind=copy-corrupt") {
		t.Fatalf("trace format: %q", ts)
	}
	s := p.Summarize()
	if s.Injected != 2 || s.RecoveryCycles != 13 || s.ByKind["wb-drop"] != 1 {
		t.Fatalf("summary wrong: %+v", s)
	}
}

func TestParseSpec(t *testing.T) {
	cfg, err := ParseSpec("seed=9,kind=wb-drop,rate=0.25")
	if err != nil || cfg.Seed != 9 || cfg.Kind != KindWritebackDrop || cfg.Rate != 0.25 {
		t.Fatalf("ParseSpec: cfg=%+v err=%v", cfg, err)
	}
	// Defaults: seed 1, kind any.
	cfg, err = ParseSpec("rate=0.5")
	if err != nil || cfg.Seed != 1 || cfg.Kind != KindAny {
		t.Fatalf("ParseSpec defaults: cfg=%+v err=%v", cfg, err)
	}
	for _, bad := range []string{
		"",                  // rate missing
		"seed=1",            // rate missing
		"rate=2",            // out of range
		"rate=x",            // not a number
		"rate=NaN",          // fails every comparison, so it must fail the range check
		"kind=bogus,rate=1", // unknown kind
		"kind=none,rate=1",  // none is not injectable
		"speed=1,rate=1",    // unknown key
		"seed,rate=1",       // not key=value
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

func TestKindStringRoundTrip(t *testing.T) {
	for k := KindRegBitFlip; k <= KindAny; k++ {
		got, ok := KindFromString(k.String())
		if !ok || got != k {
			t.Errorf("kind %v does not round-trip: %v %v", k, got, ok)
		}
	}
	if _, ok := KindFromString("none"); ok {
		t.Error("KindFromString must reject none")
	}
}

func TestRateZeroInjectsNothing(t *testing.T) {
	p := NewPlan(Config{Seed: 1, Kind: KindAny, Rate: 0})
	for seq := int64(0); seq < 1000; seq++ {
		if k := p.Decide(seq, isa.ADD, true); k != KindNone {
			t.Fatalf("rate-0 plan injected %v", k)
		}
	}
}
