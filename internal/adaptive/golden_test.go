package adaptive

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/vlm"
)

// goldenTournamentDigest is the SHA-256 of the fold-j acceptance
// tournament's full observable transcript: every delivered event's
// Seq, model, question, verdict, Ability/AbilitySE bits and stop
// reason, then the final standings. It pins every ability and
// standard-error bit, so any change to the estimator, item selection or
// delivery order that moves a single float shows up here even when
// rankings and stop reasons stay the same.
const goldenTournamentDigest = "a722e43bcab7b1eda89ffd6cd67cd8167971bee6bf0c85d4ba8a8fdca7fdbe0a"

// TestTournamentGoldenDigest runs the acceptance tournament at workers
// 1 and 2 and compares both transcripts, bit for bit, against the
// recorded digest.
func TestTournamentGoldenDigest(t *testing.T) {
	std, err := core.BuildBenchmark()
	if err != nil {
		t.Fatal(err)
	}
	fold, err := core.CollectExtended("fold-j", 30, 64)
	if err != nil {
		t.Fatal(err)
	}
	models := vlm.NewZoo(std).EvalModels()
	cal, err := NewCalibration(context.Background(), eval.Runner{Workers: -1}, models, fold)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		trn, err := NewTournament(models, cal.Bank, Config{Seed: "acceptance"})
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		r := eval.Runner{Workers: workers, Observer: eval.ObserverFunc(func(ev eval.Event) {
			digestInt(h, int64(ev.Seq))
			digestString(h, ev.Model.Name())
			digestString(h, ev.Question.ID)
			digestBool(h, ev.Correct)
			digestFloat(h, ev.Ability)
			digestFloat(h, ev.AbilitySE)
			digestString(h, ev.StopReason)
		})}
		if _, err := r.EvaluateAdaptiveContext(context.Background(), models, trn); err != nil {
			t.Fatal(err)
		}
		for _, st := range trn.Standings() {
			digestString(h, st.Model)
			digestFloat(h, st.Ability)
			digestFloat(h, st.SE)
			digestInt(h, int64(st.Asked))
			digestString(h, st.StopReason)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != goldenTournamentDigest {
			t.Errorf("workers=%d: tournament digest %s, want %s", workers, got, goldenTournamentDigest)
		}
	}
}

func digestInt(h hash.Hash, v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	h.Write(b[:])
}

func digestFloat(h hash.Hash, v float64) { digestInt(h, int64(math.Float64bits(v))) }

func digestBool(h hash.Hash, v bool) {
	if v {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
}

// digestString writes a length prefix, so adjacent fields cannot blur
// into one another.
func digestString(h hash.Hash, s string) {
	digestInt(h, int64(len(s)))
	h.Write([]byte(s))
}
