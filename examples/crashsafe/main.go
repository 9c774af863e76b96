// Crashsafe: kill the serving layer mid-append and watch it come
// back without losing an ack or double-sequencing a retry.
//
// The service runs with a write-ahead log (DESIGN.md §11): every
// sequenced job is CRC-framed and fsynced before the submitter is
// acked. This example runs the full cycle in one process:
//
//  1. an uninterrupted reference run records what the merged request
//     log SHOULD look like for a fixed submission stream;
//  2. a second service on a fresh WAL dir takes the first half of the
//     stream, then "crashes" — the process state is thrown away and
//     half an appended frame is left on the WAL tail, exactly what
//     kill -9 mid-write(2) leaves on disk;
//  3. a restarted service recovers the directory, truncating the torn
//     tail; the client paranoidly retries its last submissions (it
//     cannot know which acks were in flight) and each retry is
//     answered from the recovered idempotency index instead of being
//     sequenced twice; the rest of the stream follows;
//  4. the recovered run's merged log is compared byte-for-byte
//     against the reference — they must be identical.
//
// CI's crash-recovery job does the same dance with a real SIGKILL
// against the snserved binary.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/hw"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/workload"
)

const total, crashAt = 10, 6

func newService(walDir string) *serve.Service {
	svc, err := serve.New(serve.Config{
		Cluster: sched.Cluster{Device: hw.TeslaK40c, Devices: 2},
		Policy:  sched.Packing,
		Shards:  4,
		WALDir:  walDir,
	})
	if err != nil {
		log.Fatal(err)
	}
	return svc
}

// submit sends request i of the fixed stream: same tenant, id, shape
// and idempotency key every time, so a resubmission is a true retry.
func submit(svc *serve.Service, i int) *serve.JobStatus {
	st, err := svc.Submit(serve.SubmitRequest{
		Tenant:         fmt.Sprintf("t%d", i%3),
		ID:             fmt.Sprintf("job%02d", i),
		Network:        "AlexNet",
		Batch:          16 << (i % 2),
		Iterations:     1 + i%3,
		IdempotencyKey: fmt.Sprintf("key-%02d", i),
	})
	if err != nil {
		log.Fatalf("submit %d: %v", i, err)
	}
	return st
}

func drainClose(svc *serve.Service) string {
	if _, err := svc.Drain(); err != nil {
		log.Fatal(err)
	}
	logText := svc.ReplayLog()
	if err := svc.Close(); err != nil {
		log.Fatal(err)
	}
	return logText
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("crashsafe: ")
	tmp, err := os.MkdirTemp("", "crashsafe-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(tmp)

	// 1. The uninterrupted reference.
	ref := newService(filepath.Join(tmp, "wal-ref"))
	for i := 0; i < total; i++ {
		submit(ref, i)
	}
	want := drainClose(ref)
	fmt.Printf("reference run: %d jobs, merged log %d bytes\n", total, len(want))

	// 2. The doomed run: first half of the stream, every ack durable.
	walDir := filepath.Join(tmp, "wal")
	doomed := newService(walDir)
	for i := 0; i < crashAt; i++ {
		st := submit(doomed, i)
		if !st.Durable {
			log.Fatalf("ack for %s was not durable", st.ID)
		}
	}
	if _, err := doomed.Drain(); err != nil {
		log.Fatal(err)
	}
	if err := doomed.Close(); err != nil {
		log.Fatal(err)
	}
	// Simulate kill -9 mid-append: half a frame on the WAL tail. A WAL
	// record is one frame holding the job's idempotency key and its
	// trace line, so the tear takes both.
	next := workload.TraceJob{ID: "t0/job06", ArrivalMS: crashAt, Network: "AlexNet", Batch: 16, Iterations: 1}
	torn := workload.AppendFrame(nil, []byte("# idem key-06\n"+workload.FormatJob(next)))
	seg := filepath.Join(walDir, "wal-00000000.seg")
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)/2]); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("crashed after %d acked jobs, %d torn bytes left on the WAL tail\n",
		crashAt, len(torn)/2)

	// 3. Restart on the same directory.
	svc := newService(walDir)
	rec := svc.Recovered()
	fmt.Printf("recovered %d jobs from %d segment(s); torn tail truncated at offset %d (%s)\n",
		len(rec.Jobs), rec.Segments, rec.Torn.Offset, rec.Torn.Reason)
	// The client cannot know which of its last acks were in flight
	// when the service died, so it retries them all; the recovered
	// index answers without sequencing twins.
	for i := crashAt - 2; i < crashAt; i++ {
		st := submit(svc, i)
		if !st.Deduped {
			log.Fatalf("retry of %s was sequenced twice", st.ID)
		}
		fmt.Printf("retry of key-%02d deduplicated to %s (seq %d)\n", i, st.ID, st.Seq)
	}
	for i := crashAt; i < total; i++ {
		submit(svc, i)
	}
	got := drainClose(svc)

	// 4. The claim: recovery + retries + the rest of the stream equals
	// the run that never crashed, byte for byte.
	if got != want {
		log.Fatalf("merged log diverged from the uninterrupted run:\ngot:\n%s\nwant:\n%s", got, want)
	}
	fmt.Printf("merged log after recovery: byte-identical to the uninterrupted run (%d bytes)\n", len(got))
}
