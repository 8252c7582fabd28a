package experiments

import (
	"math"
	"strings"
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/testbed"
)

func params(t *testing.T) Params {
	if testing.Short() {
		return Params{TSFlows: 64, Duration: 30 * sim.Millisecond, Seed: 42}
	}
	return ShortParams()
}

func TestTableIValues(t *testing.T) {
	rows := TableI()
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].TotalKb != 2304 || rows[1].TotalKb != 1764 {
		t.Fatalf("totals = %v/%v, want 2304/1764", rows[0].TotalKb, rows[1].TotalKb)
	}
	out := FormatTableI(rows)
	if !strings.Contains(out, "540Kb") {
		t.Fatalf("missing saving line:\n%s", out)
	}
}

// TestPerSwitchStudyValues pins E-PERSWITCH (FPGA platform, seed 42):
// network-total BRAM commercial / uniform derived / per switch, and the
// range of entries a switch holds.
func TestPerSwitchStudyValues(t *testing.T) {
	rows, err := PerSwitchStudy(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	want := "network,commercial_kb,uniform_kb,per_switch_kb,saving_pct,min_entries,max_entries,flows\n" +
		"ring-6 × 1024 × 3 hops,64908,6966,6246,-10.3,511,513,1024\n" +
		"mesh-210 × 2048 × 4 hops,2271780,517860,414306,-20.0,0,188,2048\n" +
		"fattree-20 × 512 × 3 hops,216360,41760,39960,-4.3,50,152,512\n"
	if got := FormatPerSwitch(rows, true); got != want {
		t.Fatalf("E-PERSWITCH:\n%s\nwant\n%s", got, want)
	}
	for _, frag := range []string{"6246Kb", "-20.0%", "511–513 of 1024", "0–188 of 2048"} {
		if !strings.Contains(FormatPerSwitch(rows, false), frag) {
			t.Errorf("E-PERSWITCH table missing %q", frag)
		}
	}
}

func TestTableIIIValues(t *testing.T) {
	cols, err := TableIII()
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 4 {
		t.Fatalf("columns = %d", len(cols))
	}
	wantTotals := []float64{10818, 5778, 3942, 2106}
	wantRed := []float64{0, 46.59, 63.56, 80.53}
	for i, c := range cols {
		if c.TotalKb != wantTotals[i] {
			t.Errorf("%s: total %v, want %v", c.Label, c.TotalKb, wantTotals[i])
		}
		if math.Abs(c.Reduction-wantRed[i]) > 0.005 {
			t.Errorf("%s: reduction %.2f, want %.2f", c.Label, c.Reduction, wantRed[i])
		}
	}
	out := FormatTableIII(cols)
	for _, frag := range []string{"10818Kb", "80.53%", "Switch Tbl", "Buffers"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Table III output missing %q", frag)
		}
	}
}

func TestFig7HopsShape(t *testing.T) {
	p := params(t)
	s, err := Fig7Hops(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != 4 {
		t.Fatalf("rows = %d", len(s.Rows))
	}
	for i, r := range s.Rows {
		if r.LossRate != 0 {
			t.Errorf("hops=%d loss %v", i+1, r.LossRate)
		}
		if lo, hi := testbed.CQFBound(i+1, 65*sim.Microsecond); r.Min < lo || r.Max > hi {
			t.Errorf("hops=%d latency [%v,%v] outside Eq. (1)'s [%v,%v]", i+1, r.Min, r.Max, lo, hi)
		}
		// Monotone growth.
		if i > 0 && r.Mean <= s.Rows[i-1].Mean {
			t.Errorf("mean latency not increasing at hops=%d", i+1)
		}
	}
	// Jitter roughly constant: max/min within 2.5x.
	minJ, maxJ := s.Rows[0].Jitter, s.Rows[0].Jitter
	for _, r := range s.Rows[1:] {
		if r.Jitter < minJ {
			minJ = r.Jitter
		}
		if r.Jitter > maxJ {
			maxJ = r.Jitter
		}
	}
	if minJ > 0 && float64(maxJ)/float64(minJ) > 2.5 {
		t.Errorf("jitter varies too much across hops: %v..%v", minJ, maxJ)
	}
}

func TestFig7SlotShape(t *testing.T) {
	p := params(t)
	s, err := Fig7Slot(p)
	if err != nil {
		t.Fatal(err)
	}
	// Latency and jitter scale with slot size.
	for i := 1; i < len(s.Rows); i++ {
		if s.Rows[i].Mean <= s.Rows[i-1].Mean {
			t.Errorf("mean not increasing with slot at row %d", i)
		}
		if s.Rows[i].LossRate != 0 {
			t.Errorf("slot row %d loss %v", i, s.Rows[i].LossRate)
		}
	}
	// Mean at 520 µs should be ≈ 8× the 65 µs mean (both ≈ 3·slot).
	ratio := float64(s.Rows[3].Mean) / float64(s.Rows[0].Mean)
	if ratio < 5 || ratio > 11 {
		t.Errorf("slot scaling ratio = %.1f, want ~8", ratio)
	}
}

func TestFig7BackgroundFlat(t *testing.T) {
	p := params(t)
	s, err := Fig7Background(p)
	if err != nil {
		t.Fatal(err)
	}
	base := s.Rows[0]
	for _, r := range s.Rows {
		if r.LossRate != 0 {
			t.Errorf("%s: TS loss %v", r.Label, r.LossRate)
		}
		diff := float64(r.Mean - base.Mean)
		if math.Abs(diff) > float64(10*sim.Microsecond) {
			t.Errorf("%s: mean %v deviates from unloaded %v", r.Label, r.Mean, base.Mean)
		}
	}
}

func TestFig2Flat(t *testing.T) {
	p := params(t)
	for _, bg := range []string{"BE", "RC"} {
		for _, cse := range []int{1, 2} {
			s, err := Fig2(p, bg, cse)
			if err != nil {
				t.Fatal(err)
			}
			base := s.Rows[0]
			for _, r := range s.Rows {
				if r.LossRate != 0 {
					t.Errorf("%s case %d %s: loss %v", bg, cse, r.Label, r.LossRate)
				}
				diff := math.Abs(float64(r.Mean - base.Mean))
				if diff > float64(10*sim.Microsecond) {
					t.Errorf("%s case %d %s: mean %v vs base %v", bg, cse, r.Label, r.Mean, base.Mean)
				}
			}
		}
	}
}

func TestFig2InvalidArgs(t *testing.T) {
	p := params(t)
	if _, err := Fig2(p, "XX", 1); err == nil {
		t.Error("unknown background accepted")
	}
	if _, err := Fig2(p, "BE", 9); err == nil {
		t.Error("unknown case accepted")
	}
}

func TestCommercialVsCustomizedQoS(t *testing.T) {
	p := params(t)
	s, err := CommercialVsCustomizedQoS(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != 2 {
		t.Fatalf("rows = %d", len(s.Rows))
	}
	com, cus := s.Rows[0], s.Rows[1]
	if com.LossRate != 0 || cus.LossRate != 0 {
		t.Fatalf("loss: %v / %v", com.LossRate, cus.LossRate)
	}
	diff := math.Abs(float64(com.Mean - cus.Mean))
	if diff > float64(10*sim.Microsecond) {
		t.Fatalf("QoS differs: commercial %v vs customized %v", com.Mean, cus.Mean)
	}
}

func TestSyncPrecision(t *testing.T) {
	res := SyncPrecision(7)
	if res.SteadyState >= 50*sim.Nanosecond {
		t.Fatalf("steady-state precision %v, want < 50ns", res.SteadyState)
	}
	if res.ConvergedAfter == 0 {
		t.Fatal("never converged")
	}
}

func TestITPAblation(t *testing.T) {
	p := params(t)
	rows, err := ITPAblation(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4 strategies", len(rows))
	}
	naive, planned := rows[0], rows[len(rows)-1]
	if planned.Occupancy >= naive.Occupancy {
		t.Fatalf("ITP did not reduce occupancy: %d vs %d", planned.Occupancy, naive.Occupancy)
	}
	if planned.QueueBufKb >= naive.QueueBufKb {
		t.Fatalf("ITP did not reduce BRAM: %v vs %v", planned.QueueBufKb, naive.QueueBufKb)
	}
	// Greedy must be at least as good as every blind strategy.
	for _, r := range rows[:3] {
		if planned.Occupancy > r.Occupancy {
			t.Fatalf("greedy (%d) worse than %s (%d)", planned.Occupancy, r.Strategy, r.Occupancy)
		}
	}
	out := FormatITP(rows)
	if !strings.Contains(out, "ITP (greedy)") {
		t.Fatal("format missing rows")
	}
}

func TestPlatformAblation(t *testing.T) {
	rows, err := PlatformAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[1].TotalKb >= rows[0].TotalKb {
		t.Fatalf("ASIC (%v) not below FPGA (%v)", rows[1].TotalKb, rows[0].TotalKb)
	}
}

func TestThresholdStudyKnee(t *testing.T) {
	// The knee position depends on per-slot occupancy, so this test
	// needs the paper-scale flow count; the window can stay short.
	p := params(t)
	p.TSFlows = 1024
	rows, err := ThresholdStudy(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Depth 1 must lose packets; the largest depths must not.
	if rows[0].LossRate == 0 {
		t.Error("depth 1 shows no loss — threshold invisible")
	}
	last := rows[len(rows)-1]
	if last.LossRate != 0 {
		t.Errorf("depth %d still losing %.2f%%", last.QueueDepth, 100*last.LossRate)
	}
	// Loss is monotonically non-increasing with depth.
	for i := 1; i < len(rows); i++ {
		if rows[i].LossRate > rows[i-1].LossRate+1e-9 {
			t.Errorf("loss increased from depth %d to %d", rows[i-1].QueueDepth, rows[i].QueueDepth)
		}
	}
	// Above the threshold, latency is identical: extra memory is free.
	var atThreshold *Row
	for i := range rows {
		if rows[i].LossRate == 0 {
			atThreshold = &rows[i]
			break
		}
	}
	if atThreshold == nil {
		t.Fatal("never reached zero loss")
	}
	if d := last.Mean - atThreshold.Mean; d > sim.Microsecond || d < -sim.Microsecond {
		t.Errorf("latency changed above threshold: %v vs %v", atThreshold.Mean, last.Mean)
	}
	out := FormatThreshold(rows)
	if !strings.Contains(out, "E-THRESHOLD") {
		t.Fatal("format broken")
	}
}

func TestNoITPStudy(t *testing.T) {
	p := params(t)
	rows, err := NoITPStudy(p, 6)
	if err != nil {
		t.Fatal(err)
	}
	planned, naive := rows[0], rows[1]
	if planned.LossRate != 0 {
		t.Errorf("planned injection lost %.2f%%", 100*planned.LossRate)
	}
	if naive.LossRate <= planned.LossRate {
		t.Errorf("naive injection (%.2f%%) not worse than planned (%.2f%%)",
			100*naive.LossRate, 100*planned.LossRate)
	}
	if naive.HighWater < planned.HighWater {
		t.Errorf("naive high water %d below planned %d", naive.HighWater, planned.HighWater)
	}
}

func TestTASvsCQF(t *testing.T) {
	p := params(t)
	rows, err := TASvsCQF(p)
	if err != nil {
		t.Fatal(err)
	}
	cqf, tasRow := rows[0], rows[1]
	if cqf.LossRate != 0 || tasRow.LossRate != 0 {
		t.Fatalf("loss: cqf %v tas %v", cqf.LossRate, tasRow.LossRate)
	}
	// TAS removes the slot quantization: an order of magnitude lower
	// latency and jitter.
	if tasRow.Mean*10 > cqf.Mean {
		t.Errorf("TAS mean %v not ≪ CQF mean %v", tasRow.Mean, cqf.Mean)
	}
	if tasRow.Jitter*5 > cqf.Jitter {
		t.Errorf("TAS jitter %v not ≪ CQF jitter %v", tasRow.Jitter, cqf.Jitter)
	}
	// The price: gate tables grow well beyond CQF's 2 entries.
	if tasRow.GateSize <= cqf.GateSize {
		t.Errorf("TAS gate entries %d not above CQF's %d", tasRow.GateSize, cqf.GateSize)
	}
	if !strings.Contains(FormatTAS(rows), "E-TAS") {
		t.Fatal("format broken")
	}
}

func TestSMSStudy(t *testing.T) {
	p := params(t)
	rows, err := SMSStudy(p)
	if err != nil {
		t.Fatal(err)
	}
	perPort, shared := rows[0], rows[1]
	if perPort.TSLossRate != 0 || shared.TSLossRate != 0 {
		t.Fatalf("loss: per-port %v shared %v", perPort.TSLossRate, shared.TSLossRate)
	}
	// Statistical multiplexing: the shared pool carries the same
	// traffic with fewer total buffers.
	if shared.BufferTotal >= perPort.BufferTotal {
		t.Errorf("shared %d buffers not below per-port %d", shared.BufferTotal, perPort.BufferTotal)
	}
	if shared.BufferKb >= perPort.BufferKb {
		t.Errorf("shared BRAM %v not below per-port %v", shared.BufferKb, perPort.BufferKb)
	}
	if !strings.Contains(FormatSMS(rows), "E-SMS") {
		t.Fatal("format broken")
	}
}

func TestDesyncStudy(t *testing.T) {
	p := params(t)
	p.TSFlows = 512 // enough load to make boundary straddling visible
	rows, err := DesyncStudy(p)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].X != 0 {
		t.Fatal("first row must be the synchronized baseline")
	}
	if rows[0].LossRate != 0 || len(rows[0].OutOfBound) > 0 {
		t.Fatalf("synchronized baseline degraded: %+v", rows[0])
	}
	// An offset inside the slot lets frames skip one: the fastest
	// delivery beats (h−1)·T, and nothing breaks the upper side.
	for _, r := range rows[1 : len(rows)-1] {
		if len(r.OutOfBound) == 0 {
			t.Errorf("offset %s: Eq. (1) held", r.Label)
		}
		for _, v := range r.OutOfBound {
			if v.Side != "lower" {
				t.Errorf("offset %s: %v", r.Label, v)
			}
		}
	}
	// Some nonzero offset must inflate jitter over the baseline
	// (boundary straddling splits frames across departure slots).
	inflated := false
	for _, r := range rows[1:] {
		if float64(r.Jitter) > 1.3*float64(rows[0].Jitter) {
			inflated = true
		}
	}
	if !inflated {
		t.Error("no desync offset inflated jitter — study not sensitive")
	}
	if !strings.Contains(FormatDesync(rows), "E-DESYNC") {
		t.Fatal("format broken")
	}
}

func TestDeadlineStudy(t *testing.T) {
	p := params(t)
	rows, err := DeadlineStudy(p)
	if err != nil {
		t.Fatal(err)
	}
	// At 65 µs every deadline class holds.
	if rows[0].MissRate() != 0 {
		t.Fatalf("misses at 65µs slot: %v", rows[0].MissRate())
	}
	// At 520 µs the 1 ms deadline class must miss: the Eq. (1) upper
	// bound (2.08 ms) exceeds it.
	last := rows[len(rows)-1]
	if last.MissRate() == 0 {
		t.Fatal("no misses at 520µs slot — deadline accounting inert")
	}
	// Misses grow (weakly) with the slot.
	for i := 1; i < len(rows); i++ {
		if rows[i].MissRate() < rows[i-1].MissRate()-1e-9 {
			t.Fatalf("miss rate decreased at %v", rows[i].Label)
		}
	}
	if !strings.Contains(FormatDeadline(rows), "E-DEADLINE") {
		t.Fatal("format broken")
	}
}

func TestCBSStudy(t *testing.T) {
	p := params(t)
	rows, err := CBSStudy(p)
	if err != nil {
		t.Fatal(err)
	}
	bare, shaped := rows[0], rows[1]
	// CBS spreads the RC burst: RC latency rises…
	if shaped.RCMean <= bare.RCMean {
		t.Errorf("CBS did not delay the shaped class: %v vs %v", shaped.RCMean, bare.RCMean)
	}
	// …and the BE tail collapses.
	if float64(shaped.BEP99)*2 > float64(bare.BEP99) {
		t.Errorf("CBS did not protect BE tail: p99 %v vs %v", shaped.BEP99, bare.BEP99)
	}
	if bare.BELoss != 0 || shaped.BELoss != 0 {
		t.Errorf("unexpected BE loss: %v / %v", bare.BELoss, shaped.BELoss)
	}
	if !strings.Contains(FormatCBS(rows), "E-CBS") {
		t.Fatal("format broken")
	}
}

func TestPreemptStudy(t *testing.T) {
	p := params(t)
	rows, err := PreemptStudy(p)
	if err != nil {
		t.Fatal(err)
	}
	plain, preempt := rows[0], rows[1]
	// Without preemption the worst case includes one full 1500 B frame
	// (~12.2 µs at 1 Gbps).
	if plain.TSMax < 11*sim.Microsecond {
		t.Errorf("baseline max %v misses the MTU blocking", plain.TSMax)
	}
	// With preemption the blocking collapses below 3 µs.
	if preempt.TSMax > 3*sim.Microsecond {
		t.Errorf("preemptive max %v, want < 3µs", preempt.TSMax)
	}
	if preempt.TSMean*3 > plain.TSMean {
		t.Errorf("preemption gain too small: %v vs %v", preempt.TSMean, plain.TSMean)
	}
	if !strings.Contains(FormatPreempt(rows), "E-PREEMPT") {
		t.Fatal("format broken")
	}
}

func TestRateStudy(t *testing.T) {
	p := params(t)
	rows, err := RateStudy(p)
	if err != nil {
		t.Fatal(err)
	}
	if !rows[0].Feasible || rows[0].LossRate != 0 {
		t.Fatalf("gigabit row degraded: %+v", rows[0])
	}
	last := rows[len(rows)-1] // 10 Mbps: frame tx > slot
	if last.Feasible {
		t.Fatal("10 Mbps flagged feasible")
	}
	if last.LossRate < 0.99 {
		t.Fatalf("10 Mbps loss = %v, want ~100%% (guard band never opens)", last.LossRate)
	}
	// Latency grows as the access rate falls (while feasible).
	if rows[1].Mean <= rows[0].Mean {
		t.Errorf("100 Mbps mean %v not above gigabit %v", rows[1].Mean, rows[0].Mean)
	}
	if !strings.Contains(FormatRate(rows), "E-RATE") {
		t.Fatal("format broken")
	}
}

func TestSeriesString(t *testing.T) {
	s := &Series{Name: "test", XAxis: "x", Rows: []Row{{Label: "a", Mean: 65 * sim.Microsecond}}}
	out := s.String()
	if !strings.Contains(out, "65.0") || !strings.Contains(out, "mean") {
		t.Fatalf("series format:\n%s", out)
	}
}
