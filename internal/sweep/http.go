package sweep

import (
	"context"
	"sync"

	"r3dla/internal/exp"
	"r3dla/internal/lab"
	"r3dla/internal/tier"
)

// StreamLine is one NDJSON line of a POST /v1/sweeps response: a "cell"
// line per completed cell (in completion order), then exactly one
// terminal line — "result" carrying the aggregate report, or "error".
type StreamLine struct {
	Event   string         `json:"event"` // "cell", "result", "error"
	Done    int            `json:"done,omitempty"`
	Total   int            `json:"total,omitempty"`
	Cell    *Cell          `json:"cell,omitempty"`
	Run     *lab.RunResult `json:"run,omitempty"`
	Resumed bool           `json:"resumed,omitempty"`
	Result  *exp.Report    `json:"result,omitempty"`
	Error   string         `json:"error,omitempty"`
}

// NewHandler returns the POST /v1/sweeps job over t's runners: the body
// is a sweep Spec (JSON), the stream one "cell" line per completed cell
// followed by the aggregate report. Mount it with lab.Server.HandleJob,
// which owns admission and the stream. Validation failures are 400s
// before the stream commits to 200; the budget cap falls between parsing
// and expansion. The server journals nothing: cross-request reuse comes
// from the Lab's singleflight result cache instead.
func NewHandler(t *TierRunners) lab.JobHandler {
	return func(body []byte) (lab.Job, error) {
		spec, err := ParseSpec(body)
		if err != nil {
			return lab.Job{}, err
		}
		job := lab.Job{Budget: spec.Budget}
		// Expand up front so bad grids are 400s with field-level
		// messages, not mid-stream errors; the cells are reused below.
		cells, err := spec.Expand()
		if err != nil {
			return job, err
		}
		runner, err := t.Runner(spec.Fidelity, spec.Budget, 0)
		if err != nil {
			return job, err
		}
		job.Run = func(ctx context.Context, emit func(any)) (any, error) {
			progress := func(ev Event) {
				c := ev.Cell
				emit(StreamLine{
					Event: "cell", Done: ev.Done, Total: ev.Total,
					Cell: &c, Run: ev.Result, Resumed: ev.Resumed,
				})
			}
			res, err := RunCells(ctx, runner, spec, cells, Options{Progress: progress})
			if err != nil {
				return nil, err
			}
			return res.Report(), nil
		}
		return job, nil
	}
}

// TierRunners resolves fidelity names to Runners over one Lab, sharing
// calibrators across requests so a server calibrates each (workload,
// calibration-budget) pair once, not once per request. Both the sweep
// and the explore handlers hold one.
type TierRunners struct {
	Lab *lab.Lab

	mu   sync.Mutex
	cals map[uint64]*tier.Calibrator
}

// Runner returns the Runner for a fidelity name: the Lab itself for the
// cycle tier, a calibrated estimator otherwise. budget is the per-cell
// budget (it sizes the calibration run); seed fixes the Monte-Carlo
// tier's sampling streams.
func (t *TierRunners) Runner(fidelity string, budget uint64, seed uint64) (Runner, error) {
	tr, err := TierOf(fidelity)
	if err != nil {
		return nil, err
	}
	if tr == TierCycle {
		return t.Lab, nil
	}
	cal := t.calibrator(budget)
	if tr == TierAnalytic {
		return tier.NewAnalyticRunner(cal), nil
	}
	return tier.NewMonteCarloRunner(cal, seed), nil
}

func (t *TierRunners) calibrator(budget uint64) *tier.Calibrator {
	cb := tier.CalibBudgetFor(budget)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cals == nil {
		t.cals = make(map[uint64]*tier.Calibrator)
	}
	c := t.cals[cb]
	if c == nil {
		c = tier.NewCalibrator(t.Lab, cb, t.Lab.PrepCache())
		t.cals[cb] = c
	}
	return c
}
