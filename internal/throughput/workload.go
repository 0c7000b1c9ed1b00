package throughput

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/mssn/loopscope/internal/policy"
	"github.com/mssn/loopscope/internal/trace"
)

// Workload models the §7 application study: bulk download (the study's
// default), file upload, video streaming and live streaming. All of
// them transfer continuously and keep an RRC connection demanded at all
// times — which is why the paper observes the loops "regardless of the
// application type" — but their achieved rates react differently to the
// ON-OFF sawtooth.
type Workload uint8

// The four applications of §7.
const (
	WorkloadBulkDownload Workload = iota
	WorkloadFileUpload
	WorkloadVideoStream
	WorkloadLiveStream
)

// String names the workload.
func (w Workload) String() string {
	switch w {
	case WorkloadBulkDownload:
		return "bulk-download"
	case WorkloadFileUpload:
		return "file-upload"
	case WorkloadVideoStream:
		return "video-stream"
	case WorkloadLiveStream:
		return "live-stream"
	default:
		return fmt.Sprintf("Workload(%d)", uint8(w))
	}
}

// Workload rate parameters.
const (
	uplinkFraction   = 0.12 // TDD uplink share of the downlink rate
	videoBitrateMbps = 25.0 // 4K adaptive stream ceiling
	liveBitrateMbps  = 8.0  // latency-bound live stream
)

// GenerateWorkload produces the per-second rate series of an
// application running over the run's radio timeline.
func GenerateWorkload(tl *trace.Timeline, op *policy.Operator, seed int64, w Workload) []Sample {
	base := Generate(tl, op, rand.New(rand.NewSource(seed)))
	if w == WorkloadBulkDownload {
		return base
	}
	rng := rand.New(rand.NewSource(seed ^ int64(w)<<8))
	out := make([]Sample, len(base))
	// Video keeps a playout buffer: short OFF periods drain it before
	// the viewer stalls.
	bufferS := 0.0
	for i, s := range base {
		v := s
		switch w {
		case WorkloadBulkDownload:
			// Bulk download consumes the raw link rate unchanged.
		case WorkloadFileUpload:
			v.Mbps = s.Mbps * uplinkFraction
		case WorkloadVideoStream:
			link := s.Mbps
			if link >= videoBitrateMbps {
				v.Mbps = videoBitrateMbps
				bufferS = math.Min(bufferS+(link-videoBitrateMbps)/videoBitrateMbps, 30)
			} else if bufferS > 1 {
				// Drain the buffer to keep playback at the bitrate.
				bufferS -= (videoBitrateMbps - link) / videoBitrateMbps
				v.Mbps = videoBitrateMbps
			} else {
				v.Mbps = link // rebuffering: playback limited to the link
			}
		case WorkloadLiveStream:
			// No buffer to hide behind: the stream is capped and stalls
			// the moment the link cannot carry it.
			v.Mbps = math.Min(s.Mbps, liveBitrateMbps*(1+0.05*rng.NormFloat64()))
			if v.Mbps < 0 {
				v.Mbps = 0
			}
		}
		out[i] = v
	}
	return out
}

// StallSeconds counts the seconds an application is fully stalled
// (below 5% of its nominal rate) — the user-facing symptom of F4.
func StallSeconds(samples []Sample, w Workload) time.Duration {
	nominal := videoBitrateMbps
	switch w {
	case WorkloadVideoStream:
		// The playout bitrate initialized above is already nominal.
	case WorkloadLiveStream:
		nominal = liveBitrateMbps
	case WorkloadBulkDownload, WorkloadFileUpload:
		nominal = 20 // any meaningful progress
	}
	n := 0
	for _, s := range samples {
		if s.Mbps < nominal*0.05 {
			n++
		}
	}
	return time.Duration(n) * time.Second
}
