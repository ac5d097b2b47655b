package main

import (
	"bytes"
	"context"
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/wire"
)

// relTol is the relative slack of every throughput comparison: the
// tolerance the requests ask the verify to hold.
const relTol = 1e-9

// checkPlan decodes a served plan document and checks what every
// answer must satisfy: it is an acyclic plan whose max-flow-verified
// throughput backs its claim and whose claim stays within the cyclic
// optimum T*.
func checkPlan(out []byte) (wire.Plan, error) {
	p, err := wire.DecodePlan(out)
	if err != nil {
		return p, err
	}
	return p, checkAnswer(p)
}

// checkAnswer checks a decoded plan (see checkPlan).
func checkAnswer(p wire.Plan) error {
	switch {
	case p.Solver != "acyclic":
		return fmt.Errorf("plan from solver %q, asked for acyclic", p.Solver)
	case !(p.Throughput > 0):
		return fmt.Errorf("plan throughput %v is not positive", p.Throughput)
	case !(p.Verified >= p.Throughput*(1-relTol)):
		return fmt.Errorf("plan verifies at %v, below its claimed %v", p.Verified, p.Throughput)
	case !(p.Throughput <= p.TStar*(1+relTol)):
		return fmt.Errorf("plan throughput %v exceeds T* = %v", p.Throughput, p.TStar)
	}
	return nil
}

// sampled reports whether stream index i falls in the run's seeded
// 1-in-16 sample of answers compared against a fresh solve.
func sampled(seed int64, i int) bool {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x%16 == 0
}

// checkFresh compares a served answer with a fresh in-process
// engine.Execute of the same request. A cold answer must match byte
// for byte. A warm-started answer carries its provenance (warm_started,
// neighbor distance, repair counters) and may settle on another optimal
// word, so there the throughput and T* must agree.
func checkFresh(ctx context.Context, req engine.Request, out []byte, served wire.Plan) error {
	plan, err := engine.Execute(ctx, req)
	if err != nil {
		return fmt.Errorf("fresh solve: %w", err)
	}
	if served.WarmStarted {
		if math.Abs(served.Throughput-plan.Throughput) > relTol*plan.Throughput || served.TStar != plan.TStar {
			return fmt.Errorf("warm answer T=%v T*=%v, fresh solve T=%v T*=%v",
				served.Throughput, served.TStar, plan.Throughput, plan.TStar)
		}
		return nil
	}
	want, err := wire.EncodePlan(plan)
	if err != nil {
		return err
	}
	if !bytes.Equal(out, want) {
		return fmt.Errorf("answer differs from a fresh in-process solve")
	}
	return nil
}
