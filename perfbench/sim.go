package main

import (
	"time"

	"repro/internal/audit"
	"repro/internal/workflow"
)

// sizes fixes the input size of every workload. defaultSizes is what
// the benchmark measures; tests shrink it.
type sizes struct {
	Departments int // simulated hospital departments (workflow.LargeHospital)
	Setups      int // set-up repetitions; setup_s is their median

	// ward-shift
	Patients   int // rows of the file-backed chart table
	PriorDays  int // audit history already on disk when the shift opens
	ShiftDays  int // simulated days of accesses the clients cycle through
	AdminEvery int // the first client makes one admin write per this many of its accesses
	WardOpens  int // timed reopens of the ward's state; ready_s is their median

	// officer-review
	HistoryDays  int           // durable history written in set-up
	OfficerOpens int           // timed reopens of the history; ready_s is their median
	WriterDays   int           // days the concurrent writer may append
	WriterBatch  int           // entries the writer appends per tick
	WriterEvery  time.Duration // the writer's tick

	// site-federation
	SiteDays  int // simulated days per site log
	ChunkDays int // days each site streams per round

	// traced run
	ProbeAccesses int // ward accesses replayed one layer down at a time
	ProbeRounds   int // repetitions of each officer / federation layer call
	ProbeScale    int // divisor applied to the other workloads' sizes in a traced run
}

func defaultSizes() sizes {
	return sizes{
		Departments:   50,
		Setups:        5,
		Patients:      3000,
		PriorDays:     10,
		ShiftDays:     12,
		AdminEvery:    150,
		WardOpens:     30,
		HistoryDays:   105,
		OfficerOpens:  5,
		WriterDays:    60,
		WriterBatch:   400,
		WriterEvery:   125 * time.Millisecond,
		SiteDays:      30,
		ChunkDays:     5,
		ProbeAccesses: 2000,
		ProbeRounds:   5,
		ProbeScale:    4,
	}
}

// scaled shrinks the data sizes by div (at least one day or row each),
// for the layer probes of workloads other than the one being run.
func (s sizes) scaled(div int) sizes {
	if div <= 1 {
		return s
	}
	shrink := func(n int) int {
		if n /= div; n < 1 {
			n = 1
		}
		return n
	}
	s.Patients = shrink(s.Patients)
	s.PriorDays = shrink(s.PriorDays)
	s.ShiftDays = shrink(s.ShiftDays)
	s.HistoryDays = shrink(s.HistoryDays)
	s.SiteDays = shrink(s.SiteDays)
	s.Setups, s.WardOpens, s.OfficerOpens = 1, 1, 1
	return s
}

// hospital is the simulator configuration every workload draws from.
func hospital(seed int64, departments int) workflow.Config {
	return workflow.LargeHospital(seed, departments)
}

// simulateDays runs the simulator for days [0, days) and returns the
// entries split per day (index = day).
func simulateDays(seed int64, departments, days int) ([][]audit.Entry, error) {
	cfg := hospital(seed, departments)
	sim, err := workflow.New(cfg)
	if err != nil {
		return nil, err
	}
	out := make([][]audit.Entry, days)
	for d := 0; d < days; d++ {
		if out[d], err = sim.Run(d, 1); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func flatten(days [][]audit.Entry) []audit.Entry {
	n := 0
	for _, d := range days {
		n += len(d)
	}
	out := make([]audit.Entry, 0, n)
	for _, d := range days {
		out = append(out, d...)
	}
	return out
}
