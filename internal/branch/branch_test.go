package branch

import (
	"math/rand"
	"testing"
)

func TestBimodalLearnsBias(t *testing.T) {
	p := NewPredictor()
	pc := uint64(0x400100)
	for i := 0; i < 50; i++ {
		p.UpdateDir(pc, true)
	}
	if !p.PredictDir(pc) {
		t.Fatal("always-taken branch must be predicted taken")
	}
	for i := 0; i < 50; i++ {
		p.UpdateDir(pc, false)
	}
	if p.PredictDir(pc) {
		t.Fatal("predictor must re-learn an inverted bias")
	}
}

func TestLoopPredictorCatchesFixedTripCounts(t *testing.T) {
	p := NewPredictor()
	pc := uint64(0x400200)
	mis := 0
	// 40 iterations of a loop taken 7 times then exiting.
	for iter := 0; iter < 40; iter++ {
		for i := 0; i < 8; i++ {
			taken := i < 7
			if p.PredictDir(pc) != taken {
				mis++
			}
			p.UpdateDir(pc, taken)
		}
	}
	// After warm-up the loop predictor must predict the exit exactly.
	if mis > 25 {
		t.Fatalf("loop predictor failed to lock on: %d mispredicts of 320", mis)
	}
	// The last 10 trips must be perfect.
	mis = 0
	for iter := 0; iter < 10; iter++ {
		for i := 0; i < 8; i++ {
			taken := i < 7
			if p.PredictDir(pc) != taken {
				mis++
			}
			p.UpdateDir(pc, taken)
		}
	}
	if mis != 0 {
		t.Fatalf("warmed loop predictor still mispredicts: %d", mis)
	}
}

func TestTAGECatchesHistoryPatterns(t *testing.T) {
	p := NewPredictor()
	pc := uint64(0x400300)
	// Alternating T,N,T,N: pure bimodal fails; history tables must learn.
	mis := 0
	for i := 0; i < 400; i++ {
		taken := i%2 == 0
		if i > 100 && p.PredictDir(pc) != taken {
			mis++
		}
		p.UpdateDir(pc, taken)
	}
	if mis > 30 {
		t.Fatalf("TAGE failed on an alternating pattern: %d/300 mispredicts", mis)
	}
}

func TestRandomBranchesAreHard(t *testing.T) {
	p := NewPredictor()
	rng := rand.New(rand.NewSource(1))
	pc := uint64(0x400400)
	mis := 0
	const n = 2000
	for i := 0; i < n; i++ {
		taken := rng.Intn(2) == 0
		if p.PredictDir(pc) != taken {
			mis++
		}
		p.UpdateDir(pc, taken)
	}
	if float64(mis)/n < 0.3 {
		t.Fatalf("a fair coin cannot be predicted with %d/%d misses", mis, n)
	}
}

func TestBTB(t *testing.T) {
	b := NewBTB(64)
	if _, ok := b.Lookup(0x400500); ok {
		t.Fatal("cold BTB cannot hit")
	}
	b.Update(0x400500, 0x400800)
	if tgt, ok := b.Lookup(0x400500); !ok || tgt != 0x400800 {
		t.Fatal("BTB lost the target")
	}
	// A conflicting branch at the same index evicts.
	b.Update(0x400500+64*4, 0x400900)
	if _, ok := b.Lookup(0x400500); ok {
		t.Fatal("direct-mapped conflict must evict")
	}
}

func TestRASBalancedCalls(t *testing.T) {
	r := NewRAS(8)
	for i := uint64(1); i <= 5; i++ {
		r.Push(0x1000 + i)
	}
	for i := uint64(5); i >= 1; i-- {
		if got := r.Pop(); got != 0x1000+i {
			t.Fatalf("RAS pop %#x, want %#x", got, 0x1000+i)
		}
	}
	if r.Pop() != 0 {
		t.Fatal("empty RAS must return 0")
	}
}

func TestRASOverflowWraps(t *testing.T) {
	r := NewRAS(4)
	for i := uint64(1); i <= 6; i++ {
		r.Push(i)
	}
	// The two oldest entries were overwritten; the newest 4 survive.
	for i := uint64(6); i >= 3; i-- {
		if got := r.Pop(); got != i {
			t.Fatalf("wrapped RAS pop %d, want %d", got, i)
		}
	}
}

func TestUnitPredictResolve(t *testing.T) {
	u := NewUnit()
	pc, next, target := uint64(0x400600), uint64(0x400604), uint64(0x400700)

	// A call trains the BTB and pushes the RAS.
	_, _ = u.Predict(KindCall, pc, next)
	u.Resolve(KindCall, pc, next, true, 0, true, target)
	if tk, tgt := u.Predict(KindCall, pc, next); !tk || tgt != target {
		t.Fatal("trained call not predicted")
	}
	u.Resolve(KindCall, pc, next, true, target, true, target)

	// Two returns must pop the two pushed addresses in LIFO order.
	if _, tgt := u.Predict(KindRet, 0x400700, 0); tgt != next {
		t.Fatalf("RAS should predict the call's return address, got %#x", tgt)
	}
	mis := u.Resolve(KindRet, 0x400700, 0, true, next, true, next)
	if mis {
		t.Fatal("matching return misflagged")
	}

	// A conditional mispredict is reported.
	taken, tgt := u.Predict(KindCond, 0x400800, 0x400804)
	mis = u.Resolve(KindCond, 0x400800, 0x400804, taken, tgt, !taken, 0x400900)
	if !mis {
		t.Fatal("direction flip must be a mispredict")
	}
	if u.Dir.Stats.Mispredicts() == 0 {
		t.Fatal("stats must count the mispredict")
	}
}

// TestPredictorBuiltOnFirstWrite pins the direction predictor's
// construction cost: a new predictor holds no table, unconditional
// branches and lookups build none, and the first conditional update
// builds the bimodal and loop tables but no tagged table until a
// misprediction allocates into one.
func TestPredictorBuiltOnFirstWrite(t *testing.T) {
	u := NewUnit()
	p := u.Dir
	tagged := func() int {
		n := 0
		for _, tb := range p.tables {
			if tb != nil {
				n++
			}
		}
		return n
	}
	if p.base != nil || p.loops != nil || tagged() != 0 {
		t.Fatal("a new predictor already holds tables")
	}
	for i := uint64(0); i < 16; i++ {
		pc := 0x400000 + 4*i
		taken, target := u.Predict(KindDirect, pc, pc+4)
		u.Resolve(KindDirect, pc, pc+4, taken, target, true, 0x500000)
		u.Dir.PredictDir(pc)
	}
	if p.base != nil || p.loops != nil || tagged() != 0 {
		t.Fatal("unconditional branches and lookups built a direction table")
	}
	// A first not-taken outcome agrees with the weakly-not-taken reset
	// state: no misprediction, so no tagged entry is allocated.
	p.UpdateDir(0x400100, false)
	if p.base == nil || p.loops == nil || tagged() != 0 {
		t.Fatalf("after one correctly predicted update: base %v, loops %v, %d tagged tables",
			p.base != nil, p.loops != nil, tagged())
	}
	p.UpdateDir(0x400100, true)
	if tagged() != 1 {
		t.Fatalf("after one misprediction: %d tagged tables, want 1", tagged())
	}
}
