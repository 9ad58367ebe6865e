package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"mictrend/internal/mic"
	"mictrend/internal/micgen"
	"mictrend/internal/serve"
	"mictrend/internal/trend"
)

// serveIngest is the serving workload: one in-process serve.Core on a fresh
// directory, served by serve.NewHandler on a loopback listener. A closed-loop
// ingester POSTs one-month JSONL bodies in order while an open-loop reader
// GETs /v1/detections at a fixed rate. Operations are ingests and reads;
// the final epoch is checked against a batch trend.Analyze of the same
// months.
type serveIngest struct {
	cfg  config
	gen  micgen.Config
	opts trend.Options
	// readRate is the reader's rate in reads per second. It is an
	// assumption, not observed serving traffic, which no source records.
	// At the 1.4 ms a read of the final epoch takes on an idle core
	// (serve.read_service_ms on a 2-vCPU Xeon), 20/s keeps reads at about
	// 3% of one core, so the folds keep the cores, while each fold of about
	// 180 ms still sees three to four reads.
	readRate float64

	ds      *mic.Dataset
	bodies  [][]byte // one JSONL body per month
	records int
	ref     map[string]int // code-level series key → reference change point
	largest []float64
}

// newServeIngest: 24 months × 300 records folded one month at a time. Like
// scan-seasonal, the corpus content is fixed and the run's seed shuffles
// record order, because the series count and the fits per fold follow the
// content.
func newServeIngest(cfg config, small bool) *serveIngest {
	s := &serveIngest{
		cfg:      cfg,
		gen:      micgen.Config{Seed: baselineSeed, Months: 24, RecordsPerMonth: 300},
		readRate: 20,
	}
	s.opts = trend.DefaultOptions()
	s.opts.Method = trend.MethodExact
	s.opts.Seasonal = false
	s.opts.MinSeriesTotal = 20
	s.opts.Workers = cfg.workers
	if cfg.corpusSeed != 0 {
		s.gen.Seed = cfg.corpusSeed
	}
	if small {
		s.gen.Months, s.gen.RecordsPerMonth = 8, 100
	}
	return s
}

func (s *serveIngest) generate() error {
	ds, _, err := micgen.Generate(s.gen)
	if err != nil {
		return err
	}
	shuffleRecords(ds, s.cfg.seed)
	s.ds, s.records, s.bodies = ds, countRecords(ds), nil
	for i := range ds.Months {
		var buf bytes.Buffer
		if err := mic.Write(&buf, oneMonth(ds, i)); err != nil {
			return err
		}
		s.bodies = append(s.bodies, buf.Bytes())
	}
	return nil
}

// oneMonth packages month i of src as a standalone one-month dataset with
// src's full vocabulary, the shape an ingest body carries.
func oneMonth(src *mic.Dataset, i int) *mic.Dataset {
	out := mic.NewDataset()
	for _, code := range src.Diseases.Codes() {
		out.Diseases.Intern(code)
	}
	for _, code := range src.Medicines.Codes() {
		out.Medicines.Intern(code)
	}
	out.Hospitals = append(out.Hospitals, src.Hospitals...)
	out.Months = append(out.Months, &mic.Monthly{Month: 0, Records: src.Months[i].Records})
	return out
}

func (s *serveIngest) reference() error {
	a, err := trend.Analyze(context.Background(), s.ds, s.opts)
	if err != nil {
		return err
	}
	s.ref = map[string]int{}
	for _, det := range detections(a) {
		key := codeKey(det.Kind.String(), code(s.ds.Diseases.Codes(), int(det.Disease), det.Kind != trend.KindMedicine),
			code(s.ds.Medicines.Codes(), int(det.Medicine), det.Kind != trend.KindDisease))
		s.ref[key] = det.Result.ChangePoint
		if sum(det.Series) > sum(s.largest) {
			s.largest = det.Series
		}
	}
	return nil
}

func code(codes []string, id int, used bool) string {
	if !used || id < 0 || id >= len(codes) {
		return ""
	}
	return codes[id]
}

// codeKey identifies a series by vocabulary codes, independent of ids.
func codeKey(kind, disease, medicine string) string { return kind + ":" + disease + "/" + medicine }

// detectionsBody is the part of GET /v1/detections the benchmark checks.
type detectionsBody struct {
	Epoch      int64 `json:"epoch"`
	Detections []struct {
		Kind        string `json:"kind"`
		Disease     string `json:"disease"`
		Medicine    string `json:"medicine"`
		ChangePoint int    `json:"change_point"`
	} `json:"detections"`
}

// idleReads is how many sequential reads a traced iteration times on the
// idle core after its last fold.
const idleReads = 100

func (s *serveIngest) iterate(p *probe) (iteration, error) {
	var it iteration
	began := time.Now()
	dir, err := os.MkdirTemp(s.cfg.workdir, "serve-")
	if err != nil {
		return it, err
	}
	defer os.RemoveAll(dir)
	copts := serve.CoreOptions{Dir: dir, Trend: s.opts}
	if p != nil {
		copts.Trend.Trace = p.tracer.Observe
		copts.Trend.Observer = p.observe
		copts.Trend.Metrics = p.reg
		copts.Metrics = p.reg
		copts.Trace = p.tracer.Observe
		p.records = s.records
		n := len(s.bodies)
		p.monthsNeeded = n * (n + 1) / 2
	}
	core, _, err := serve.NewCore(copts)
	if err != nil {
		return it, err
	}
	defer core.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return it, err
	}
	srv := &http.Server{Handler: serve.NewHandler(core, serve.HandlerOptions{})}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Shutdown(context.Background())
		<-served
	}()
	base := "http://" + ln.Addr().String()
	ingester, reader := oneConnClient(), oneConnClient()
	defer ingester.CloseIdleConnections()
	defer reader.CloseIdleConnections()
	if err := waitReady(reader, base); err != nil {
		return it, err
	}
	it.setup = time.Since(began)

	fail := func(format string, args ...any) {
		it.failed++
		it.failures = append(it.failures, fmt.Sprintf(format, args...))
	}
	tm := beginTimed()
	iterID, endIter := p.span("iteration", 0, s.cfg.workload)
	rd := startReader(reader, base, s.readRate)
	var lastEpoch int64
	for m, body := range s.bodies {
		_, endIngest := p.span("serve.ingest", iterID, fmt.Sprintf("month=%d", m))
		t0 := time.Now()
		reply, err := postIngest(ingester, base, m, body)
		it.ops = append(it.ops, time.Since(t0))
		endIngest()
		it.attempted++
		switch {
		case err != nil:
			fail("ingest month %d: %v", m, err)
		case reply.Month != m:
			fail("ingest month %d landed at month %d", m, reply.Month)
		case reply.Epoch <= lastEpoch:
			fail("ingest month %d published epoch %d after epoch %d", m, reply.Epoch, lastEpoch)
		}
		lastEpoch = reply.Epoch
	}
	endIter()
	it.wall, it.cpu, it.peakHeap = tm.end()
	rd.stop()
	it.reads, it.readLag = rd.latencies, rd.maxLag
	it.attempted += rd.attempted
	for _, f := range rd.failures {
		fail("%s", f)
	}

	it.attempted++
	body, n, err := getDetections(reader, base)
	switch {
	case err != nil:
		fail("final read: %v", err)
	case body.Epoch != int64(len(s.bodies))+1:
		fail("final epoch %d, want %d", body.Epoch, len(s.bodies)+1)
	default:
		if diff := s.compare(body); diff != "" {
			fail("final epoch differs from the reference: %s", diff)
		}
	}
	if p != nil {
		// The read's own cost, apart from the folds it competes with under
		// load: sequential reads of the final epoch on the idle core.
		for i := 0; i < idleReads; i++ {
			t0 := time.Now()
			if _, _, err := getDetections(reader, base); err != nil {
				return it, fmt.Errorf("idle read: %w", err)
			}
			p.readService = append(p.readService, ms(time.Since(t0)))
		}
	}
	// Deferred calls repeat these on error paths; both are idempotent.
	if err := srv.Shutdown(context.Background()); err != nil {
		return it, fmt.Errorf("shutting down the listener: %w", err)
	}
	if err := core.Close(); err != nil {
		return it, fmt.Errorf("closing the core: %w", err)
	}
	if p != nil {
		p.detectionsBytes = n
		// The ingest handler decodes each body inside the request, so the
		// benchmark times the same public decode apart, after the timed
		// region, together with the pipeline's filter.
		_, endRead := p.span("mic.ReadAuto", 0, fmt.Sprintf("%d bodies", len(s.bodies)))
		for _, b := range s.bodies {
			if _, _, _, err := mic.ReadAuto(bytes.NewReader(b), mic.StorageOptions{Read: mic.ReadOptions{Strict: true}}); err != nil {
				return it, err
			}
		}
		endRead()
		_, endFilter := p.span("mic.FilterDataset", 0, "timed apart from the folds")
		mic.FilterDataset(s.ds, mic.FilterOptions{MinMonthlyFreq: s.opts.MinMonthlyFreq})
		endFilter()
	}
	return it, nil
}

// compare returns "" when the served detections match the reference, else
// the first difference.
func (s *serveIngest) compare(body detectionsBody) string {
	if len(body.Detections) != len(s.ref) {
		return fmt.Sprintf("%d series, reference %d", len(body.Detections), len(s.ref))
	}
	for _, d := range body.Detections {
		key := codeKey(d.Kind, d.Disease, d.Medicine)
		want, ok := s.ref[key]
		if !ok {
			return key + " is not in the reference"
		}
		if d.ChangePoint != want {
			return fmt.Sprintf("%s: change point %d, reference %d", key, d.ChangePoint, want)
		}
	}
	return ""
}

func oneConnClient() *http.Client {
	return &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

func waitReady(c *http.Client, base string) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := c.Get(base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("core never became ready")
}

type ingestReply struct {
	Month int   `json:"month"`
	Epoch int64 `json:"epoch"`
}

func postIngest(c *http.Client, base string, month int, body []byte) (ingestReply, error) {
	var reply ingestReply
	resp, err := c.Post(fmt.Sprintf("%s/v1/ingest?month=%d", base, month), "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		return reply, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply, err
	}
	if resp.StatusCode != http.StatusOK {
		return reply, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return reply, json.Unmarshal(b, &reply)
}

// getDetections reads /v1/detections, returning the parsed body and its
// size in bytes.
func getDetections(c *http.Client, base string) (detectionsBody, int, error) {
	var body detectionsBody
	resp, err := c.Get(base + "/v1/detections")
	if err != nil {
		return body, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return body, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return body, len(b), fmt.Errorf("status %d", resp.StatusCode)
	}
	return body, len(b), json.Unmarshal(b, &body)
}

// reader is the open-loop read generator: read i is due at start + i/rate,
// and its latency runs from when it was due, so a slow server cannot hide
// its queueing by slowing the generator down.
type reader struct {
	quit chan struct{}
	done sync.WaitGroup

	latencies []time.Duration
	maxLag    time.Duration // how late the generator sent its worst read
	attempted int
	failures  []string
}

func startReader(c *http.Client, base string, rate float64) *reader {
	r := &reader{quit: make(chan struct{})}
	interval := time.Duration(float64(time.Second) / rate)
	r.done.Add(1)
	go func() {
		defer r.done.Done()
		start := time.Now()
		timer := time.NewTimer(0)
		defer timer.Stop()
		var lastEpoch int64
		for i := 0; ; i++ {
			due := start.Add(time.Duration(i) * interval)
			timer.Reset(time.Until(due))
			select {
			case <-r.quit:
				return
			case <-timer.C:
			}
			if lag := time.Since(due); lag > r.maxLag {
				r.maxLag = lag
			}
			body, _, err := getDetections(c, base)
			r.latencies = append(r.latencies, time.Since(due))
			r.attempted++
			switch {
			case err != nil:
				r.failures = append(r.failures, fmt.Sprintf("read %d: %v", i, err))
			case body.Epoch < lastEpoch:
				r.failures = append(r.failures, fmt.Sprintf("read %d: epoch %d after epoch %d", i, body.Epoch, lastEpoch))
			}
			lastEpoch = max(lastEpoch, body.Epoch)
		}
	}()
	return r
}

func (r *reader) stop() {
	close(r.quit)
	r.done.Wait()
}

func (s *serveIngest) kalmanSeries() ([]float64, bool) { return s.largest, s.opts.Seasonal }

func (s *serveIngest) shape() string {
	return fmt.Sprintf("corpus_seed=%d months=%d records=%d series=%d min_series_total=%.6g method=%v seasonal=%v read_rate=%g/s",
		s.gen.Seed, len(s.bodies), s.records, len(s.ref), s.opts.MinSeriesTotal, s.opts.Method, s.opts.Seasonal, s.readRate)
}
