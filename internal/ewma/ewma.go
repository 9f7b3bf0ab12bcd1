// Package ewma is the exponentially weighted moving average of the job
// engine's and a worker's service-time estimators.
package ewma

// Mean is an exponentially weighted moving average seeded by its first
// sample; the zero Mean is empty. It is not safe for concurrent use.
type Mean struct {
	Value  float64 // the mean, 0 before the first sample
	Seeded bool
}

// Observe folds x into the mean: the first sample sets it, each later
// one moves it to (1-alpha)·mean + alpha·x.
func (m *Mean) Observe(alpha, x float64) {
	if m.Seeded {
		m.Value = (1-alpha)*m.Value + alpha*x
	} else {
		m.Value, m.Seeded = x, true
	}
}
