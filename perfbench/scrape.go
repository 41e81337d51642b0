package main

import (
	"context"
	"strconv"
	"strings"
)

// promSample is one /metrics scrape: sample name (with its label set, as
// printed) to value.
type promSample map[string]float64

func (b *bench) scrape(ctx context.Context, s *node) (promSample, error) {
	text, err := b.cl.getText(ctx, s.url+"/metrics")
	if err != nil {
		return nil, err
	}
	out := promSample{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, nil
}

// delta is after[name]-before[name]; absent samples count as 0.
func delta(before, after promSample, name string) float64 { return after[name] - before[name] }

// meanDelta is the mean of a histogram over the interval between two
// scrapes, in the histogram's unit times scale; 0 when nothing was observed.
func meanDelta(before, after promSample, hist string, scale float64) float64 {
	n := delta(before, after, hist+"_count")
	if n <= 0 {
		return 0
	}
	return delta(before, after, hist+"_sum") / n * scale
}

// statsDoc is the subset of GET /stats the benchmark reads (wire contract
// in API.md).
type statsDoc struct {
	Asserted int `json:"asserted"`
	Inferred int `json:"inferred"`
	Engine   struct {
		Rounds      int64  `json:"rounds"`
		Derived     int64  `json:"derived"`
		Overdeleted int64  `json:"overdeleted"`
		Rederived   int64  `json:"rederived"`
		Generation  uint64 `json:"generation"`
	} `json:"engine"`
	Cache struct {
		Hits          int64 `json:"hits"`
		Misses        int64 `json:"misses"`
		Invalidations int64 `json:"invalidations"`
	} `json:"cache"`
	Durability *struct {
		Seq        uint64 `json:"seq"`
		SegmentSeq uint64 `json:"segment_seq"`
	} `json:"durability"`
	Queries   int64 `json:"queries"`
	Mutations int64 `json:"mutations"`
}

type replStatus struct {
	AppliedGeneration uint64 `json:"applied_generation"`
	Lag               uint64 `json:"lag_generations"`
	Resnapshots       int64  `json:"resnapshots"`
}

func (b *bench) stats(ctx context.Context, s *node) (statsDoc, error) {
	var st statsDoc
	err := b.cl.getJSON(ctx, s.url+"/stats", &st)
	return st, err
}

// replicaStatus reads a replica's catch-up status from /healthz.
func (b *bench) replicaStatus(ctx context.Context, s *node) (replStatus, error) {
	var h struct {
		Replication *struct {
			Replica *replStatus `json:"replica"`
		} `json:"replication"`
	}
	if err := b.cl.getJSON(ctx, s.url+"/healthz", &h); err != nil {
		return replStatus{}, err
	}
	if h.Replication == nil || h.Replication.Replica == nil {
		return replStatus{}, nil
	}
	return *h.Replication.Replica, nil
}
