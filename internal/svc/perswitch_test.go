package svc

import (
	"context"
	"fmt"
	"net/http"
	"reflect"
	"testing"
	"time"

	"github.com/tsnbuilder/tsnbuilder/internal/tsnswitch"
	"github.com/tsnbuilder/tsnbuilder/internal/workload"
)

// switchConfigs reads every switch's configuration on the control loop.
func switchConfigs(t *testing.T, s *Service) []tsnswitch.Config {
	t.Helper()
	var out []tsnswitch.Config
	err := s.Instance().submit(context.Background(), func() {
		for _, sw := range s.Instance().net.Switches {
			c := sw.Config()
			c.Metrics = nil // per-instance registry
			out = append(out, c)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRecoveryReachesThePerSwitchState: recovery jumps straight to the
// journal tail, the live instance walked A → B → A (→ C); because a
// switch's size is a function of (design, network-wide config) and not
// of the path taken, both end with the same configuration on every
// switch — per-switch sizes included.
func TestRecoveryReachesThePerSwitchState(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Workload: workload.Params{Topology: "ring", Switches: 6, TSFlows: 24, Hops: 3,
		WireSize: 200, SlotUs: 65, Seed: 3}}
	post := func(url string, unicast, class, meter int) {
		t.Helper()
		body := fmt.Sprintf(`{"unicast_size":%d,"class_size":%d,"meter_size":%d}`, unicast, class, meter)
		if resp, b := postJSON(t, url+"/v1/reconfig", body, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("reconfig %s: %d %s", body, resp.StatusCode, b)
		}
	}
	restart := func(s *Service) (*Service, string) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		return newDurableService(t, dir, opts)
	}

	s1, url := newDurableService(t, dir, opts)
	a := s1.Instance().LiveConfig()
	derived := switchConfigs(t, s1)
	uniform := true
	for _, c := range derived {
		uniform = uniform && c.UnicastSize == a.UnicastSize
	}
	if uniform {
		t.Fatal("every switch holds the network-wide size: the workload does not exercise per-switch sizing")
	}
	post(url, 2*a.UnicastSize, 3*a.ClassSize, 2*a.MeterSize) // B
	post(url, a.UnicastSize, a.ClassSize, a.MeterSize)       // back to A, exactly full
	before := switchConfigs(t, s1)
	if !reflect.DeepEqual(before, derived) {
		t.Fatalf("A → B → A is not the derived state:\n%+v\n%+v", before, derived)
	}
	s2, url := restart(s1)
	if after := switchConfigs(t, s2); !reflect.DeepEqual(after, before) {
		t.Fatalf("restart after A → B → A:\n%+v\nwant\n%+v", after, before)
	}

	post(url, a.UnicastSize+7, a.ClassSize+5, a.MeterSize+3) // C, the journal tail
	before = switchConfigs(t, s2)
	s3, _ := restart(s2)
	after := switchConfigs(t, s3)
	if !reflect.DeepEqual(after, before) {
		t.Fatalf("restart at C:\n%+v\nwant\n%+v", after, before)
	}
	for i, c := range after {
		if c.UnicastSize != derived[i].UnicastSize+7 || c.ClassSize != derived[i].ClassSize+5 || c.MeterSize != derived[i].MeterSize+3 {
			t.Fatalf("switch %d at C holds %+v, derived %+v", i, c, derived[i])
		}
	}
}
