package main

import (
	"flag"
	"io"
	"math"
	"strings"
	"testing"
)

func TestValidateSpeed(t *testing.T) {
	cases := []struct {
		name  string
		speed float64
		ok    bool
	}{
		{"original pacing", 1, true},
		{"double speed", 2, true},
		{"slow motion", 0.25, true},
		{"firehose", 0, true},
		{"negative", -1, false},
		{"negative fraction", -0.5, false},
		{"nan", math.NaN(), false},
		{"positive inf", math.Inf(1), false},
		{"negative inf", math.Inf(-1), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateSpeed(tc.speed)
			if tc.ok && err != nil {
				t.Fatalf("validateSpeed(%v) = %v, want nil", tc.speed, err)
			}
			if !tc.ok && err == nil {
				t.Fatalf("validateSpeed(%v) = nil, want error", tc.speed)
			}
		})
	}
}

// TestParseArgs: each mode accepts the flags it reads and rejects, by
// name, a flag that only the other mode reads; -policy and -speed are
// validated before anything is dialed or loaded.
func TestParseArgs(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr []string // substrings; empty means valid
	}{
		{name: "synthetic defaults"},
		{name: "synthetic with its own flags",
			args: []string{"-procs", "2", "-rate", "50", "-policy", "daemon", "-duration", "1s", "-window", "8"}},
		{name: "replay with its own and the shared flags",
			args: []string{"-replay", "c.bin", "-speed", "0", "-buffer", "8", "-node", "3", "-heartbeat", "0", "-io-timeout", "1s"}},
		{name: "workload flags with a replay",
			args:    []string{"-replay", "c.bin", "-procs", "2", "-rate", "5", "-duration", "1s"},
			wantErr: []string{"-duration, -procs, -rate", "not valid with -replay"}},
		{name: "a policy with a replay",
			args:    []string{"-replay", "c.bin", "-policy", "buffered"},
			wantErr: []string{"-policy", "not valid with -replay"}},
		{name: "speed without a replay",
			args:    []string{"-speed", "2"},
			wantErr: []string{"-speed: valid only with -replay"}},
		{name: "unknown policy",
			args:    []string{"-policy", "frobnicate"},
			wantErr: []string{`unknown policy "frobnicate"`}},
		{name: "negative speed",
			args:    []string{"-replay", "c.bin", "-speed", "-2"},
			wantErr: []string{"-speed must be a finite value"}},
		{name: "the old resilient switch",
			args:    []string{"-resilient"},
			wantErr: []string{"not defined: -resilient"}},
		{name: "a stray argument",
			args:    []string{"-node", "1", "c.bin"},
			wantErr: []string{`unexpected argument "c.bin"`}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseArgs(tc.args, flag.ContinueOnError, io.Discard)
			if len(tc.wantErr) == 0 {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("args %v accepted", tc.args)
			}
			for _, want := range tc.wantErr {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("error %q does not name %q", err, want)
				}
			}
		})
	}
}
