package machine

import (
	"bytes"
	"strings"
	"testing"
)

func TestConfigRoundTrip(t *testing.T) {
	for _, m := range []*Machine{Clustered(4), Unclustered(7), ClusteredWithCopyFUs(8, 2)} {
		var buf bytes.Buffer
		if err := WriteConfig(&buf, m); err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		back, err := ReadConfig(&buf)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if back.Name != m.Name || back.Clusters != m.Clusters || back.PerCluster != m.PerCluster || back.Lat != m.Lat {
			t.Fatalf("%s: round trip changed machine:\n%+v\n%+v", m.Name, m, back)
		}
	}
}

func TestConfigDefaultsLatencies(t *testing.T) {
	m, err := ReadConfig(strings.NewReader(`{
  "name": "tiny",
  "clusters": 2,
  "units_per_cluster": {"mem": 1, "add": 1, "mul": 1, "copy": 1}
}`))
	if err != nil {
		t.Fatal(err)
	}
	if m.Lat != DefaultLatencies() {
		t.Errorf("omitted latencies did not default: %+v", m.Lat)
	}
}

func TestConfigPartialLatencyOverride(t *testing.T) {
	m, err := ReadConfig(strings.NewReader(`{
  "name": "slowmul",
  "clusters": 1,
  "units_per_cluster": {"mem": 1, "add": 1, "mul": 1},
  "latencies": {"mul": 5}
}`))
	if err != nil {
		t.Fatal(err)
	}
	if m.Lat.Of(Mul) != 5 {
		t.Errorf("mul latency = %d, want 5", m.Lat.Of(Mul))
	}
	if m.Lat.Of(Load) != DefaultLatencies().Of(Load) {
		t.Error("unmentioned latencies must keep defaults")
	}
}

func TestConfigErrors(t *testing.T) {
	cases := map[string]string{
		"bad json":      `{`,
		"unknown unit":  `{"name":"x","clusters":1,"units_per_cluster":{"fpu":1}}`,
		"unknown class": `{"name":"x","clusters":1,"units_per_cluster":{"add":1},"latencies":{"frob":1}}`,
		"no clusters":   `{"name":"x","clusters":0,"units_per_cluster":{"add":1}}`,
		"no units":      `{"name":"x","clusters":2,"units_per_cluster":{"copy":1}}`,
	}
	for name, text := range cases {
		if _, err := ReadConfig(strings.NewReader(text)); err == nil {
			t.Errorf("%s: accepted %q", name, text)
		}
	}
}

// FuzzReadConfig feeds arbitrary bytes to ReadConfig, the decoder of
// the machine descriptions a compile request carries. It must never
// panic; every config it accepts must pass Validate, bounds included;
// and every accepted config must round-trip through WriteConfig and
// ReadConfig to an equal Machine.
func FuzzReadConfig(f *testing.F) {
	for _, m := range []*Machine{Clustered(4), Unclustered(7), ClusteredWithCopyFUs(8, 2)} {
		var buf bytes.Buffer
		if err := WriteConfig(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(`{"clusters":64,"units_per_cluster":{"mem":64},"latencies":{"div":64}}`))
	f.Add([]byte(`{"clusters":100000,"units_per_cluster":{"mem":1}}`))
	f.Add([]byte(`{"name":"x","clusters":2,"units_per_cluster":{"mem":1,"mem":2},"latencies":{"load":0}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadConfig(bytes.NewReader(data))
		if err != nil {
			return
		}
		if verr := m.Validate(); verr != nil {
			t.Fatalf("ReadConfig(%q) accepted an invalid machine: %v", data, verr)
		}
		var buf bytes.Buffer
		if err := WriteConfig(&buf, m); err != nil {
			t.Fatalf("WriteConfig(%+v): %v", m, err)
		}
		back, err := ReadConfig(&buf)
		if err != nil {
			t.Fatalf("ReadConfig refused its own output %q: %v", buf.Bytes(), err)
		}
		if *back != *m {
			t.Fatalf("round trip changed the machine:\n%+v\n%+v", m, back)
		}
	})
}
