package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/hw"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/workload"
)

// The serving workloads drive a real snserved with the flags below. One
// process generates the load over at most two keep-alive connections,
// with plain net/http and request bodies made before the clock starts,
// so the generator's own cost is the same on every commit.

// denseFlags is serve-dense's daemon: the default 1 ms virtual spacing,
// so no job finishes before the next arrives and every durable ack's
// status projection replays the whole active history.
var denseFlags = []string{"-shards", "4", "-snapshot-every", "64"}

// sparseFlags spaces jobs 5 s apart in virtual time, so jobs finalize
// behind the replay watermark and the projection is O(1).
var sparseFlags = []string{"-shards", "4", "-snapshot-every", "64", "-spacing", "5000"}

// daemonCluster and daemonPolicy are snserved's defaults, which the
// offline replay check must match.
var (
	daemonCluster = sched.Cluster{Device: hw.TeslaK40c, Devices: 2}
	daemonPolicy  = sched.Packing
)

// submission is one pre-generated job submission.
type submission struct {
	id   string // full job id, "tenant/name"
	body []byte
}

// genSubmissions draws n submissions from serve.DefaultTemplates(). The
// templates are dealt in seeded permutations, one full deck per
// len(templates) jobs, so every seed submits the same job mix and only
// the order and the tenants change.
func genSubmissions(seed uint64, salt uint64, n, tenants int) []submission {
	rng := rand.New(rand.NewPCG(seed, salt))
	tpls := serve.DefaultTemplates()
	var deck []int
	out := make([]submission, n)
	for k := range out {
		if len(deck) == 0 {
			deck = rng.Perm(len(tpls))
		}
		tpl := tpls[deck[0]]
		deck = deck[1:]
		tenant := fmt.Sprintf("t%02d", rng.IntN(tenants))
		req := serve.SubmitRequest{
			Tenant: tenant, ID: fmt.Sprintf("j%06d", k),
			Network: tpl.Network, Batch: tpl.Batch, Manager: tpl.Manager,
			Priority: tpl.Priority, Iterations: tpl.Iterations,
		}
		if len(tpl.BatchSchedule) > 1 {
			req.Schedule, req.Batch = tpl.BatchSchedule.String(), 0
		}
		body, err := json.Marshal(req)
		if err != nil {
			panic(err) // a SubmitRequest always marshals
		}
		out[k] = submission{id: tenant + "/" + req.ID, body: body}
	}
	return out
}

// httpClient returns a keep-alive client that opens at most conns
// connections.
func httpClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 2 * stopTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// ackStatus is the part of a JobStatus the checks read.
type ackStatus struct {
	ID      string `json:"id"`
	State   string `json:"state"`
	Seq     int    `json:"seq"`
	Durable bool   `json:"durable"`
}

// submit posts one submission and validates the durable ack: 202, the
// right id, durable, and sequenced into a final state. A job the
// scheduler rejects for admission is a correct outcome.
func submit(c *http.Client, base string, s submission) error {
	resp, err := c.Post(base+"/v1/jobs", "application/json", bytes.NewReader(s.body))
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("submit %s: http %d: %s", s.id, resp.StatusCode, data)
	}
	var st ackStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("submit %s: %v", s.id, err)
	}
	if st.ID != s.id || !st.Durable || st.Seq < 0 || (st.State != "scheduled" && st.State != "rejected") {
		return fmt.Errorf("submit %s: unexpected ack %+v", s.id, st)
	}
	return nil
}

// read fetches one job's status and checks it names the job.
func read(c *http.Client, base, id string) error {
	resp, err := c.Get(base + "/v1/jobs/" + id)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("read %s: http %d: %s", id, resp.StatusCode, data)
	}
	var st ackStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("read %s: %v", id, err)
	}
	if st.ID != id || st.Seq < 0 {
		return fmt.Errorf("read %s: unexpected status %+v", id, st)
	}
	return nil
}

// drainSummary is snserved's drain response with the schedule kept as
// raw JSON for the byte comparison.
type drainSummary struct {
	Jobs      int             `json:"jobs"`
	Result    json.RawMessage `json:"result"`
	ReplayLog string          `json:"replay_log"`
}

func drain(c *http.Client, base string) (*drainSummary, error) {
	resp, err := c.Post(base+"/v1/drain", "application/json", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("drain: http %d: %s", resp.StatusCode, data)
	}
	var d drainSummary
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("drain: %v", err)
	}
	return &d, nil
}

// checkDrained runs the serving correctness checks on a drained
// daemon's outputs and its WAL directory.
func checkDrained(r *report, tag string, acked []string, d *drainSummary, walDir string) {
	jobs, err := workload.ParseTrace(strings.NewReader(d.ReplayLog))
	r.check(tag+": drained replay log parses", err)
	if err != nil {
		return
	}
	r.check(tag+": acked ids appear exactly once in the replay log, and nothing else", sameIDs(acked, jobs))
	r.check(tag+": drain result equals an offline sched replay of the log", sameSchedule(jobs, d.Result))
	r.check(tag+": RecoverWAL returns the drained log", recoversLog(walDir, d.ReplayLog))
}

// sameIDs reports whether jobs holds every acked id exactly once and no
// other.
func sameIDs(acked []string, jobs []workload.TraceJob) error {
	want := make(map[string]int, len(acked))
	for _, id := range acked {
		want[id]++
	}
	for _, j := range jobs {
		want[j.ID]--
	}
	var bad []string
	for id, n := range want {
		if n != 0 {
			bad = append(bad, fmt.Sprintf("%s (%+d)", id, -n))
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		if len(bad) > 5 {
			bad = append(bad[:5], "...")
		}
		return fmt.Errorf("%d acked, %d logged; mismatched: %s", len(acked), len(jobs), strings.Join(bad, ", "))
	}
	return nil
}

// sameSchedule replays the log through sched on the daemon's cluster and
// compares the JSON byte for byte with what the daemon returned.
func sameSchedule(jobs []workload.TraceJob, got json.RawMessage) error {
	s, err := sched.NewScheduler(daemonCluster, daemonPolicy)
	if err != nil {
		return err
	}
	res, err := s.Run(sched.JobsFromTrace(jobs))
	if err != nil {
		return err
	}
	want, err := json.Marshal(res)
	if err != nil {
		return err
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, got); err != nil {
		return err
	}
	if !bytes.Equal(compact.Bytes(), want) {
		return fmt.Errorf("daemon schedule (%d bytes) differs from offline replay (%d bytes)", compact.Len(), len(want))
	}
	return nil
}

// recoversLog checks that the WAL alone rebuilds the drained log.
func recoversLog(walDir, log string) error {
	rec, err := serve.RecoverWAL(walDir)
	if err != nil {
		return err
	}
	if rec.Torn != nil {
		return fmt.Errorf("drained WAL has a torn tail: %+v", *rec.Torn)
	}
	if got := workload.FormatTrace(rec.Jobs); got != log {
		return fmt.Errorf("recovered %d jobs, log differs from the drained one", len(rec.Jobs))
	}
	return nil
}

// daemonArgs is the snserved command line for one WAL directory.
func daemonArgs(flags []string, walDir string) []string {
	return append([]string{"-addr", "127.0.0.1:0", "-wal-dir", walDir, "-exit-after-drain"}, flags...)
}

// startSamples times one daemon start until healthy per WAL
// directory: on empty directories that is set-up, on a drained one
// restart recovery.
func startSamples(e *env, bin string, flags []string, dirs []string) ([]opSample, error) {
	var out []opSample
	for _, dir := range dirs {
		e.speed.mark()
		at := e.speed.now()
		d, dt, err := startDaemon(bin, daemonArgs(flags, dir)...)
		if err != nil {
			return nil, err
		}
		if err := d.stop(); err != nil {
			return nil, err
		}
		out = append(out, opSample{at: at, took: dt})
	}
	e.speed.mark()
	return out, nil
}

// setupSamples times sc.setupSamples daemon starts on empty WAL
// directories.
func setupSamples(e *env, bin string, flags []string, sc scale) ([]opSample, error) {
	var dirs []string
	for range sc.setupSamples {
		dir, err := e.dir("wal-empty")
		if err != nil {
			return nil, err
		}
		dirs = append(dirs, dir)
	}
	return startSamples(e, bin, flags, dirs)
}

// recoverSamples times sc.recoverSamples restarts on one drained WAL.
func recoverSamples(e *env, bin string, flags []string, walDir string, sc scale) ([]opSample, error) {
	dirs := make([]string, sc.recoverSamples)
	for i := range dirs {
		dirs[i] = walDir
	}
	return startSamples(e, bin, flags, dirs)
}

// runServeDense is the closed-loop workload: one connection submits a
// seeded stream of durable jobs back to back. Because the ack cost
// grows with the active history, the load is cut into episodes of
// sc.denseJobs submissions, each on a fresh daemon and WAL, repeated
// until the window is spent. Every episode covers the same history
// positions, so the latency distribution does not depend on how many
// episodes fit; each draws its own stream from the seed, so one run
// averages over several job orders.
func runServeDense(e *env, sc scale) (*report, error) {
	r := newReport(e.o)
	bin, err := e.serverBinary()
	if err != nil {
		return nil, err
	}
	setup, err := setupSamples(e, bin, denseFlags, sc)
	if err != nil {
		return nil, err
	}
	client := httpClient(1)
	defer client.CloseIdleConnections()

	var lat []opSample
	var firstWAL string
	start := e.speed.now()
	for ep := 0; ep == 0 || e.speed.now()-start < e.o.window; ep++ {
		walDir, err := e.dir("wal-dense")
		if err != nil {
			return nil, err
		}
		if firstWAL == "" {
			firstWAL = walDir
		}
		d, _, err := startDaemon(bin, daemonArgs(denseFlags, walDir)...)
		if err != nil {
			return nil, err
		}
		var acked []string
		for _, s := range denseStream(e.o.seed, ep, sc) {
			// The loop is closed on one connection, so nothing is in
			// flight here and a mark is think time the daemon never sees.
			e.speed.tick()
			smp, err := e.speed.timeOp(func() error { return submit(client, d.base, s) })
			r.Attempted++
			if err != nil {
				r.Failed++
				r.Failures = append(r.Failures, err.Error())
				continue
			}
			lat = append(lat, smp)
			acked = append(acked, s.id)
		}
		e.speed.mark()
		sum, err := drain(client, d.base)
		client.CloseIdleConnections()
		if err != nil {
			d.kill()
			return nil, err
		}
		if err := d.wait(); err != nil {
			return nil, err
		}
		if ep == 0 {
			checkDrained(r, "serve-dense", acked, sum, walDir)
		}
	}
	recov, err := recoverSamples(e, bin, denseFlags, firstWAL, sc)
	if err != nil {
		return nil, err
	}
	marks := e.speed.marks
	latencyMetrics(r, "ack", lat, marks, true)
	secondsMetric(r, "setup_s", setup, marks, true)
	secondsMetric(r, "recover_s", recov, marks, false)
	return r, nil
}

// denseStream is serve-dense's submission stream for one episode.
func denseStream(seed uint64, episode int, sc scale) []submission {
	return genSubmissions(seed, 1<<32|uint64(episode), sc.denseJobs, sc.denseTenants)
}

// Open-loop event kinds.
const (
	opSubmit = iota
	opRead
)

// event is one request of an open-loop schedule.
type event struct {
	due  time.Duration // offset from the start of the window
	kind int
	sub  int     // submission index (opSubmit)
	pick float64 // which earlier ack to read, as a fraction (opRead)
}

// genSchedule draws a merged Poisson schedule of submits and reads over
// the window.
func genSchedule(seed uint64, window time.Duration, submitHz, readHz float64) []event {
	rng := rand.New(rand.NewPCG(seed, 2))
	rate := submitHz + readHz
	var out []event
	subs := 0
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= window {
			return out
		}
		ev := event{due: due, kind: opSubmit, pick: rng.Float64()}
		if rng.Float64() < readHz/rate {
			ev.kind = opRead
		} else {
			ev.sub = subs
			subs++
		}
		out = append(out, ev)
	}
}

// sample is one open-loop request's timeline, as offsets from the start
// of the window.
type sample struct {
	due, sent, done time.Duration
	err             error
}

// latency is charged from the due time, so a stall is also charged to
// every request queued behind it.
func (s sample) latency() time.Duration { return s.done - s.due }

// lateness is how late the generator dispatched the request: harness
// delay, not the system's.
func (s sample) lateness() time.Duration { return s.sent - s.due }

// openLoop plays events on schedule whatever the responses do: a
// generator dispatches each event at its due time into a queue that
// conns workers drain, each calling do. It returns one sample per
// event, in event order.
func openLoop(events []event, conns int, do func(event) error) []sample {
	out := make([]sample, len(events))
	queue := make(chan int, len(events)) // never blocks the generator
	start := time.Now()
	var wg sync.WaitGroup
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				err := do(events[i])
				out[i].done = time.Since(start)
				out[i].err = err
			}
		}()
	}
	for i, ev := range events {
		if wait := ev.due - time.Since(start); wait > 0 {
			preciseSleep(wait)
		}
		out[i].due = ev.due
		out[i].sent = time.Since(start)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out
}

// sparseSegment is how much of the open-loop schedule plays between two
// speed marks. A mark cannot run while requests are due, so the
// schedule is played one segment at a time, each once the previous
// one's responses are in.
const sparseSegment = time.Second

// segments cuts a schedule into consecutive pieces of length seg, each
// with due times relative to its own start.
func segments(events []event, seg time.Duration) [][]event {
	var out [][]event
	for _, ev := range events {
		k := int(ev.due / seg)
		for len(out) <= k {
			out = append(out, nil)
		}
		ev.due -= time.Duration(k) * seg
		out[k] = append(out[k], ev)
	}
	return out
}

// punctuality is the generator's lateness p99, in milliseconds, in the
// most punctual second and in the least punctual second taken.
type punctuality struct{ best, worst float64 }

// punctualSeconds takes each second's acks and generator lateness and
// returns the acks of the quarter of the seconds (rounded up) in which
// the lateness p99 was lowest.
func punctualSeconds(acks [][]opSample, late [][]time.Duration) ([]opSample, punctuality) {
	p99 := make([]float64, len(late))
	order := make([]int, len(late))
	for i, w := range late {
		p99[i] = summarize(w).P99MS
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return p99[order[a]] < p99[order[b]] })
	order = order[:(len(order)+3)/4]
	var out []opSample
	for _, i := range order {
		out = append(out, acks[i]...)
	}
	var p punctuality
	if len(order) > 0 {
		p = punctuality{best: p99[order[0]], worst: p99[order[len(order)-1]]}
	}
	return out, p
}

// runServeSparse is the open-loop workload: seeded Poisson submits and
// reads of earlier acked jobs over two connections for the window, on
// one daemon.
func runServeSparse(e *env, sc scale) (*report, error) {
	r := newReport(e.o)
	bin, err := e.serverBinary()
	if err != nil {
		return nil, err
	}
	setup, err := setupSamples(e, bin, sparseFlags, sc)
	if err != nil {
		return nil, err
	}
	events := genSchedule(e.o.seed, e.o.window, sc.sparseSubmitHz, sc.sparseReadHz)
	subs := genSubmissions(e.o.seed, 3, len(events), sc.sparseTenants)
	walDir, err := e.dir("wal-sparse")
	if err != nil {
		return nil, err
	}
	d, _, err := startDaemon(bin, daemonArgs(sparseFlags, walDir)...)
	if err != nil {
		return nil, err
	}
	defer d.kill()
	client := httpClient(2)
	defer client.CloseIdleConnections()

	var mu sync.Mutex
	var acked []string
	do := func(ev event) error {
		if ev.kind == opRead {
			mu.Lock()
			n := len(acked)
			var id string
			if n > 0 {
				id = acked[int(ev.pick*float64(n))]
			}
			mu.Unlock()
			if n == 0 {
				return errNothingToRead
			}
			return read(client, d.base, id)
		}
		s := subs[ev.sub]
		if err := submit(client, d.base, s); err != nil {
			return err
		}
		mu.Lock()
		acked = append(acked, s.id)
		mu.Unlock()
		return nil
	}
	var ackLat, readLat []opSample
	var late []time.Duration
	// The acks and the generator's lateness of each segment.
	var ackWindows [][]opSample
	var lateWindows [][]time.Duration
	for _, seg := range segments(events, sparseSegment) {
		e.speed.mark()
		base := e.speed.now()
		ackWindows = append(ackWindows, nil)
		lateWindows = append(lateWindows, nil)
		for i, s := range openLoop(seg, 2, do) {
			late = append(late, s.lateness())
			lateWindows[len(lateWindows)-1] = append(lateWindows[len(lateWindows)-1], s.lateness())
			if errors.Is(s.err, errNothingToRead) {
				continue
			}
			r.Attempted++
			if s.err != nil {
				r.Failed++
				r.Failures = append(r.Failures, s.err.Error())
				continue
			}
			smp := opSample{at: base + s.due, took: s.latency()}
			if seg[i].kind == opRead {
				readLat = append(readLat, smp)
			} else {
				ackLat = append(ackLat, smp)
				ackWindows[len(ackWindows)-1] = append(ackWindows[len(ackWindows)-1], smp)
			}
		}
	}
	e.speed.mark()
	sum, err := drain(client, d.base)
	if err != nil {
		return nil, err
	}
	if err := d.wait(); err != nil {
		return nil, err
	}
	checkDrained(r, "serve-sparse", acked, sum, walDir)
	// When the host stops the VM for a few milliseconds, the generator
	// sends late and every request in flight or queued waits; seconds like
	// that came and went, for minutes at a time, and set the run's p90.
	// The generator's own work is trivial, so its lateness marks them: the
	// gated numbers come from the acks of the quarter of the seconds in
	// which it was most punctual ("ack-punctual"; the whole run is the
	// "ack" row). A generator that cannot keep up is late in every second,
	// so the run fails if even the most punctual one was late.
	lt := summarize(late)
	r.Lateness = &lt
	punctual, p := punctualSeconds(ackWindows, lateWindows)
	r.Extra["lateness_best_second_p99_ms"] = stat{Value: p.best, Unit: "ms", N: len(late)}
	r.Extra["lateness_punctual_p99_ms"] = stat{Value: p.worst, Unit: "ms", N: len(late)}
	var lateErr error
	if p99 := time.Duration(p.best * float64(time.Millisecond)); p99 > sc.maxLatenessP99 {
		lateErr = fmt.Errorf("p99 %v in the most punctual second: the run measured the load generator", p99)
	}
	r.check(fmt.Sprintf("serve-sparse: generator lateness p99 within %v", sc.maxLatenessP99), lateErr)
	recov, err := recoverSamples(e, bin, sparseFlags, walDir, sc)
	if err != nil {
		return nil, err
	}
	marks := e.speed.marks
	latencyMetrics(r, "ack", ackLat, marks, false)
	latencyMetrics(r, "ack-punctual", punctual, marks, true)
	latencyMetrics(r, "read", readLat, marks, false)
	secondsMetric(r, "setup_s", setup, marks, true)
	secondsMetric(r, "recover_s", recov, marks, false)
	return r, nil
}

// errNothingToRead marks a read due before any job was acked; it is
// skipped, not counted.
var errNothingToRead = errors.New("no acked job to read yet")

// walBytes sums the sizes of a WAL directory's files.
func walBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, en := range entries {
		info, err := os.Stat(filepath.Join(dir, en.Name()))
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}
