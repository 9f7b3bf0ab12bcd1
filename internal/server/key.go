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

// machineSection renders the machine section of a key: the machine's
// JSON config, which is also the config a wire unit carries.
func machineSection(m *machine.Machine) json.RawMessage {
	mj, err := json.Marshal(m)
	if err != nil {
		// Machine marshaling is infallible for valid machines (fixed
		// struct of ints and strings); a failure means memory
		// corruption, not bad input.
		panic(fmt.Sprintf("server: machine %s failed to marshal: %v", m.Name, err))
	}
	return mj
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
func keyOf(buf []byte, loopText string, machineJSON []byte, scheduler, options string) (string, []byte) {
	buf = appendSection(buf[:0], "loop", loopText)
	buf = appendSection(buf, "machine", machineJSON)
	buf = appendSection(buf, "scheduler", scheduler)
	buf = appendSection(buf, "options", options)
	sum := sha256.Sum256(buf)
	var hexSum [2 * sha256.Size]byte
	hex.Encode(hexSum[:], sum[:])
	return string(hexSum[:]), buf
}

func appendSection[T string | []byte](buf []byte, name string, data T) []byte {
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
	machines map[machine.Machine]json.RawMessage
	options  map[driver.Options]string
}

func newKeyer() *keyer {
	return &keyer{
		loops:    make(map[*loop.Loop]string),
		machines: make(map[machine.Machine]json.RawMessage),
		options:  make(map[driver.Options]string),
	}
}

// key returns JobKey(job), with the loop text and machine config it
// hashed: their canonical renderings, or a text seeded into k.loops
// (see LeaseJobs). Jobs that share a loop or a machine share the
// returned text or config, which callers must treat as read-only.
func (k *keyer) key(job driver.Job) (key, loopText string, config json.RawMessage) {
	loopText, ok := k.loops[job.Loop]
	if !ok {
		loopText = loop.Format(job.Loop)
		k.loops[job.Loop] = loopText
	}
	config, ok = k.machines[*job.Machine]
	if !ok {
		config = machineSection(job.Machine)
		k.machines[*job.Machine] = config
	}
	opts, ok := k.options[job.Options]
	if !ok {
		opts = optionsSection(job.Options)
		k.options[job.Options] = opts
	}
	key, k.buf = keyOf(k.buf, loopText, config, job.Scheduler, opts)
	return key, loopText, config
}

// LeasedJob is one wire unit ready to compile: its job and cache key,
// or the error that kept it from assembling. The key is
// JobKey when the unit's loop text is canonical, as a coordinator
// sends it; see LeaseJobs.
type LeasedJob struct {
	Job driver.Job
	Key string
	Err error
}

// LeaseJobs assembles and keys the units of one lease. Units with the
// same loop text share one parsed *loop.Loop and units with the same
// machine config one *machine.Machine, each built once, so they also
// share one keyer rendering; the jobs compile concurrently, and the
// back-ends treat both as read-only. A unit whose loop or machine does
// not build fails alone.
//
// A unit's loop section is keyed with the unit's own text rather than
// a re-rendering of the parsed loop. A coordinator sends the canonical
// text, so the key is JobKey; a text that is not canonical still keys
// injectively, since it parses to exactly one loop, and only misses
// cache entries its canonical form keyed.
func LeaseJobs(units []api.WorkUnit) []LeasedJob {
	k := newKeyer()
	loops := make(map[string]built[*loop.Loop])
	configs := make(map[string]built[*machine.Machine])
	out := make([]LeasedJob, len(units))
	for i, u := range units {
		l, ok := loops[u.Loop]
		if !ok {
			l.v, l.err = loop.ParseString(u.Loop)
			loops[u.Loop] = l
			if l.err == nil {
				k.loops[l.v] = u.Loop
			}
		}
		var m built[*machine.Machine]
		if len(u.Machine.Config) == 0 {
			m.v, m.err = machineSpec(u.Machine).machine()
		} else if m, ok = configs[string(u.Machine.Config)]; !ok {
			m.v, m.err = machineSpec(u.Machine).machine()
			configs[string(u.Machine.Config)] = m
		}
		switch {
		case l.err != nil:
			out[i].Err = fmt.Errorf("unit %s: bad loop: %w", u.ID, l.err)
		case m.err != nil:
			out[i].Err = fmt.Errorf("unit %s: bad machine: %w", u.ID, m.err)
		default:
			// The server's own option conversion: a unit compiles
			// identically wherever it lands.
			job := driver.Job{Loop: l.v, Machine: m.v, Scheduler: u.Scheduler, Options: driverOptions(u.Options)}
			key, _, _ := k.key(job)
			out[i] = LeasedJob{Job: job, Key: key}
		}
	}
	return out
}

// built is the outcome of building one value from its wire form.
type built[T any] struct {
	v   T
	err error
}
