package chaos

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"github.com/tsnbuilder/tsnbuilder/internal/faults"
)

// Repro is the top-level minimal-repro artifact: the shrunk case, the
// violations it reproduces, and the exact tsnsim invocation that
// replays it (the fault script and reconfig delta ride in sidecar
// files next to the artifact).
type Repro struct {
	Case       Case        `json:"case"`
	Violations []Violation `json:"violations"`
	// TsnsimArgs is the argv tail replaying this case:
	// `tsnsim <args...>` from the artifact's directory.
	TsnsimArgs []string `json:"tsnsim_args"`
}

// TsnsimArgs renders the flag list that replays c through plain
// tsnsim. faultsFile/reconfigFile are the sidecar paths to reference
// ("" when the case has none).
func (c *Case) TsnsimArgs(faultsFile, reconfigFile string) []string {
	args := []string{
		"-topology", c.Topology,
		"-switches", strconv.Itoa(c.Switches),
		"-flows", strconv.Itoa(c.TSFlows),
		"-hops", strconv.Itoa(c.Hops),
		"-size", strconv.Itoa(c.WireSize),
		"-slot", strconv.Itoa(c.SlotUs),
		"-duration", strconv.Itoa(c.DurMs),
		"-seed", strconv.FormatUint(c.Seed, 10),
		"-no-gptp",
	}
	if c.RCMbps > 0 {
		args = append(args, "-rc", strconv.Itoa(c.RCMbps))
	}
	if c.BEMbps > 0 {
		args = append(args, "-be", strconv.Itoa(c.BEMbps))
	}
	if c.FRERFlows > 0 {
		args = append(args, "-frer", strconv.Itoa(c.FRERFlows))
	}
	if c.Watchdog {
		args = append(args, "-watchdog")
	}
	if c.TSDeadline > 0 {
		args = append(args, "-ts-deadline", fmt.Sprintf("%dns", c.TSDeadline))
	}
	if faultsFile != "" {
		args = append(args, "-faults", faultsFile)
	}
	if reconfigFile != "" {
		args = append(args, "-reconfig", reconfigFile)
	}
	return args
}

// WriteRepro writes the minimal-repro artifact set for one failure
// into dir: <name>.repro.json (case + violations + replay argv), and
// when applicable <name>.faults.json / <name>.reconfig.json sidecars
// that tsnsim -faults / -reconfig load directly. It returns the repro
// file's path.
func WriteRepro(dir, name string, c Case, violations []Violation) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	writeJSON := func(path string, v any) error {
		data, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(path, append(data, '\n'), 0o644)
	}
	var faultsName, reconfigName string
	if len(c.Faults) > 0 {
		faultsName = name + ".faults.json"
		sc := faults.Scenario{Faults: c.Faults}
		if err := writeJSON(filepath.Join(dir, faultsName), &sc); err != nil {
			return "", err
		}
	}
	if c.Reconfig != nil {
		reconfigName = name + ".reconfig.json"
		if err := writeJSON(filepath.Join(dir, reconfigName), c.Reconfig); err != nil {
			return "", err
		}
	}
	repro := Repro{
		Case:       c,
		Violations: violations,
		TsnsimArgs: c.TsnsimArgs(faultsName, reconfigName),
	}
	path := filepath.Join(dir, name+".repro.json")
	if err := writeJSON(path, &repro); err != nil {
		return "", err
	}
	return path, nil
}

// LoadRepro reads a repro artifact back for -chaos-replay.
func LoadRepro(path string) (*Repro, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Repro
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("chaos repro %s: %w", path, err)
	}
	return &r, nil
}
