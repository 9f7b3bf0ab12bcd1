package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"

	api "repro/api/v1"
	"repro/internal/driver"
	"repro/internal/loop"
	"repro/internal/machine"
)

// Key returns the content-addressed cache key of one compile job: the
// SHA-256 of the canonical loop text, the machine description, the
// scheduler name and the driver options.
//
// The loop section uses loop.Format, which is a canonical form: any
// two sources that parse to the same loop (whatever their spacing,
// comments or declaration style) re-serialize to identical text and
// therefore share a key. The machine section uses the JSON config
// form, which covers the name, cluster count, per-cluster unit counts
// and the latency model — so two configurations that schedule
// differently can never collide. Every section is length-prefixed
// before hashing, which keeps the encoding injective (no pair of
// distinct inputs can concatenate to the same byte stream).
func Key(l *loop.Loop, m *machine.Machine, scheduler string, opt driver.Options) string {
	key, _ := keyOf(nil, loop.Format(l), machineSection(m), scheduler, optionsSection(opt))
	return key
}

// JobKey is Key over an assembled driver job.
func JobKey(job driver.Job) string {
	return Key(job.Loop, job.Machine, job.Scheduler, job.Options)
}

// machineSection renders the machine section of a key.
func machineSection(m *machine.Machine) string {
	mj, err := json.Marshal(m)
	if err != nil {
		// Machine marshaling is infallible for valid machines (fixed
		// struct of ints and strings); a failure means memory
		// corruption, not bad input.
		panic(fmt.Sprintf("server: machine %s failed to marshal: %v", m.Name, err))
	}
	return string(mj)
}

// optionsSection renders the options section of a key. Options is a
// flat struct of ints and bools; the %+v rendering lists every field
// with its name and is injective on its values.
func optionsSection(opt driver.Options) string {
	return fmt.Sprintf("%+v", opt)
}

// keyOf hashes the rendered sections of a key, each framed as
// "<name> <len>\n<data>\n". It assembles the frames in buf, grown as
// needed, and returns it for reuse.
func keyOf(buf []byte, loopText, machineJSON, scheduler, options string) (string, []byte) {
	buf = appendSection(buf[:0], "loop", loopText)
	buf = appendSection(buf, "machine", machineJSON)
	buf = appendSection(buf, "scheduler", scheduler)
	buf = appendSection(buf, "options", options)
	sum := sha256.Sum256(buf)
	var hexSum [2 * sha256.Size]byte
	hex.Encode(hexSum[:], sum[:])
	return string(hexSum[:]), buf
}

func appendSection(buf []byte, name, data string) []byte {
	buf = append(buf, name...)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(len(data)), 10)
	buf = append(buf, '\n')
	buf = append(buf, data...)
	return append(buf, '\n')
}

// keyer computes the Keys of one batch's jobs, rendering each loop
// (by pointer), machine and options section once: a batch is a cross
// product, so most of its jobs share all three. It is not safe for
// concurrent use.
type keyer struct {
	buf      []byte
	loops    map[*loop.Loop]string
	machines map[machine.Machine]string
	options  map[driver.Options]string
}

func newKeyer() *keyer {
	return &keyer{
		loops:    make(map[*loop.Loop]string),
		machines: make(map[machine.Machine]string),
		options:  make(map[driver.Options]string),
	}
}

// key returns JobKey(job).
func (k *keyer) key(job driver.Job) string {
	lt, ok := k.loops[job.Loop]
	if !ok {
		lt = loop.Format(job.Loop)
		k.loops[job.Loop] = lt
	}
	mj, ok := k.machines[*job.Machine]
	if !ok {
		mj = machineSection(job.Machine)
		k.machines[*job.Machine] = mj
	}
	opts, ok := k.options[job.Options]
	if !ok {
		opts = optionsSection(job.Options)
		k.options[job.Options] = opts
	}
	var key string
	key, k.buf = keyOf(k.buf, lt, mj, job.Scheduler, opts)
	return key
}

// LeasedJob is one wire unit ready to compile: its job (UnitJob) and
// cache key (JobKey), or the error that kept it from assembling.
type LeasedJob struct {
	Job driver.Job
	Key string
	Err error
}

// LeaseJobs assembles and keys the units of one lease through one
// keyer, so units sharing a machine or options render them once.
func LeaseJobs(units []api.WorkUnit) []LeasedJob {
	k := newKeyer()
	out := make([]LeasedJob, len(units))
	for i, u := range units {
		job, err := UnitJob(u)
		if err != nil {
			out[i].Err = err
			continue
		}
		out[i] = LeasedJob{Job: job, Key: k.key(job)}
	}
	return out
}
