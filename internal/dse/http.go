package dse

import (
	"context"
	"fmt"

	"r3dla/internal/lab"
	"r3dla/internal/sweep"
)

// NewHandler returns the POST /v1/explore job over t's runners: the body
// is an exploration Spec (JSON), the stream one sweep.StreamLine "cell"
// line per completed evaluation (Done/Total relative to the current
// search batch) followed by the exploration report. Mount it with
// lab.Server.HandleJob, which owns admission and the stream. Validation
// failures are 400s before the stream commits to 200; the budget cap
// falls after the space is opened. The server journals nothing:
// cross-request reuse comes from the Lab's singleflight result cache
// instead.
func NewHandler(t *sweep.TierRunners) lab.JobHandler {
	return func(body []byte) (lab.Job, error) {
		spec, err := ParseSpec(body)
		if err != nil {
			return lab.Job{}, err
		}
		// Normalize and open the space up front so bad strategies and
		// bad axes are 400s with field-level messages, not mid-stream
		// errors.
		spec, err = spec.normalize()
		if err != nil {
			return lab.Job{}, err
		}
		if _, err := NewSpace(spec.Space); err != nil {
			return lab.Job{}, err
		}
		job := lab.Job{Budget: spec.Space.Budget}

		// The base runner follows the space's own fidelity (an
		// all-analytic or all-MC exploration runs entirely on an
		// estimator); a ladder exploration additionally gets the two
		// estimator tiers, seeded by the exploration seed. Resolution
		// only builds calibrator handles: no simulation happens until
		// cells run.
		seed := uint64(spec.Seed)
		runner, err := t.Runner(spec.Space.Fidelity, spec.Space.Budget, seed)
		if err != nil {
			return job, err
		}
		var tiers *Tiers
		if spec.Fidelity == FidelityLadder {
			analytic, aerr := t.Runner(sweep.TierAnalytic, spec.Space.Budget, seed)
			mc, merr := t.Runner(sweep.TierMC, spec.Space.Budget, seed)
			if aerr != nil || merr != nil {
				return job, fmt.Errorf("%w: fidelity ladder tiers unavailable", lab.ErrInvalid)
			}
			tiers = &Tiers{Analytic: analytic, MC: mc}
		}
		job.Run = func(ctx context.Context, emit func(any)) (any, error) {
			progress := func(ev sweep.Event) {
				c := ev.Cell
				emit(sweep.StreamLine{
					Event: "cell", Done: ev.Done, Total: ev.Total,
					Cell: &c, Run: ev.Result, Resumed: ev.Resumed,
				})
			}
			res, err := Explore(ctx, runner, spec, Options{Progress: progress, Tiers: tiers})
			if err != nil {
				return nil, err
			}
			return res.Report(), nil
		}
		return job, nil
	}
}
