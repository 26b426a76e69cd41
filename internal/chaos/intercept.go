package chaos

import (
	"context"
	"fmt"
	"time"
)

// Intercept compiles the plan's runner channels into the service's
// pre-run hook: worker stalls and panics, each decided by a pure hash of
// (seed, channel salt, job ID).
//
// A nil return means the plan has no runner channels and the service
// should skip the hook entirely.
func Intercept(seed int64, plan Plan) (func(ctx context.Context, jobID string) error, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if plan.RunStall == 0 && plan.RunPanic == 0 {
		return nil, nil
	}
	s := uint64(seed)
	return func(ctx context.Context, jobID string) error {
		jk := hashString(jobID)
		if plan.RunStall > 0 && hash01(s, saltStall, jk) < plan.RunStall {
			maxMs := plan.RunStallMaxMs
			if maxMs <= 0 {
				maxMs = 25
			}
			d := 1 + int(hash01(s, saltStallLen, jk)*float64(maxMs))
			if d > maxMs {
				d = maxMs
			}
			t := time.NewTimer(time.Duration(d) * time.Millisecond)
			select {
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			case <-t.C:
			}
		}
		if plan.RunPanic > 0 && hash01(s, saltPanic, jk) < plan.RunPanic {
			panic(fmt.Sprintf("chaos: injected panic (job %s)", jobID))
		}
		return nil
	}, nil
}
