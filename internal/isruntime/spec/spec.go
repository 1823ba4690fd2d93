// Package spec implements a small sensor-specification language in the
// spirit of the application-specific instrumentation systems the paper
// classifies (§4): Falcon's "low-level sensor specification language"
// and SPI's "event specification language". A specification declares
// which metrics to sample, how often, what thresholds the automated
// analysis should watch, and how the IS should be configured — and
// compiles into live probes, a bottleneck tool and LIS/ISM settings,
// the "customizable application-specific module" synthesis path of §1.
//
// Grammar (line oriented, '#' comments):
//
//	sensor <name> metric=<id> every=<duration>
//	threshold <sensor> above=<value> alpha=<0..1> hits=<n>
//	buffer capacity=<records> policy=<fof|faof|forwarding|daemon>
//	ism input=<siso|miso> ordered=<true|false>
package spec

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"prism/internal/isruntime/env"
	"prism/internal/isruntime/event"
	"prism/internal/isruntime/ism"
)

// SensorSpec declares one sampled metric.
type SensorSpec struct {
	Name   string
	Metric uint16
	Every  time.Duration
}

// ThresholdSpec declares one automated-analysis watch.
type ThresholdSpec struct {
	Sensor string
	Above  float64
	Alpha  float64
	Hits   uint64
}

// BufferSpec declares the LIS configuration.
type BufferSpec struct {
	Capacity int
	Policy   string // fof, faof, forwarding, daemon
}

// ISMSpec declares the manager configuration.
type ISMSpec struct {
	Input   string // siso or miso
	Ordered bool
}

// Spec is a parsed specification.
type Spec struct {
	Sensors    []SensorSpec
	Thresholds []ThresholdSpec
	Buffer     BufferSpec
	ISM        ISMSpec
}

// Defaults applied when a section is omitted.
func defaultSpec() *Spec {
	return &Spec{
		Buffer: BufferSpec{Capacity: 64, Policy: "fof"},
		ISM:    ISMSpec{Input: "siso", Ordered: true},
	}
}

// Parse reads a specification.
func Parse(r io.Reader) (*Spec, error) {
	s := defaultSpec()
	sc := bufio.NewScanner(r)
	line := 0
	seen := map[string]bool{}
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "sensor":
			if len(fields) < 2 || strings.Contains(fields[1], "=") {
				return nil, fmt.Errorf("spec: line %d: sensor needs a name", line)
			}
			name := fields[1]
			if seen[name] {
				return nil, fmt.Errorf("spec: line %d: duplicate sensor %q", line, name)
			}
			seen[name] = true
			args, err := parseArgs(fields[2:])
			if err != nil {
				return nil, fmt.Errorf("spec: line %d: %w", line, err)
			}
			metric, err := args.uint16("metric")
			if err != nil {
				return nil, fmt.Errorf("spec: line %d: %w", line, err)
			}
			every, err := args.duration("every")
			if err != nil {
				return nil, fmt.Errorf("spec: line %d: %w", line, err)
			}
			if every <= 0 {
				return nil, fmt.Errorf("spec: line %d: non-positive sampling period", line)
			}
			s.Sensors = append(s.Sensors, SensorSpec{Name: name, Metric: metric, Every: every})
		case "threshold":
			if len(fields) < 2 || strings.Contains(fields[1], "=") {
				return nil, fmt.Errorf("spec: line %d: threshold needs a sensor name", line)
			}
			args, err := parseArgs(fields[2:])
			if err != nil {
				return nil, fmt.Errorf("spec: line %d: %w", line, err)
			}
			above, err := args.float("above")
			if err != nil {
				return nil, fmt.Errorf("spec: line %d: %w", line, err)
			}
			alpha := 0.5
			if args.has("alpha") {
				if alpha, err = args.float("alpha"); err != nil {
					return nil, fmt.Errorf("spec: line %d: %w", line, err)
				}
			}
			if alpha <= 0 || alpha > 1 {
				return nil, fmt.Errorf("spec: line %d: alpha out of (0,1]", line)
			}
			hits := uint64(1)
			if args.has("hits") {
				h, err := args.float("hits")
				if err != nil || h < 1 {
					return nil, fmt.Errorf("spec: line %d: bad hits", line)
				}
				hits = uint64(h)
			}
			s.Thresholds = append(s.Thresholds, ThresholdSpec{
				Sensor: fields[1], Above: above, Alpha: alpha, Hits: hits,
			})
		case "buffer":
			args, err := parseArgs(fields[1:])
			if err != nil {
				return nil, fmt.Errorf("spec: line %d: %w", line, err)
			}
			if args.has("capacity") {
				c, err := args.float("capacity")
				if err != nil || c < 1 {
					return nil, fmt.Errorf("spec: line %d: bad capacity", line)
				}
				s.Buffer.Capacity = int(c)
			}
			if args.has("policy") {
				p := args.str("policy")
				switch p {
				case "fof", "faof", "forwarding", "daemon":
					s.Buffer.Policy = p
				default:
					return nil, fmt.Errorf("spec: line %d: unknown policy %q", line, p)
				}
			}
		case "ism":
			args, err := parseArgs(fields[1:])
			if err != nil {
				return nil, fmt.Errorf("spec: line %d: %w", line, err)
			}
			if args.has("input") {
				in := args.str("input")
				if in != "siso" && in != "miso" {
					return nil, fmt.Errorf("spec: line %d: unknown input %q", line, in)
				}
				s.ISM.Input = in
			}
			if args.has("ordered") {
				b, err := strconv.ParseBool(args.str("ordered"))
				if err != nil {
					return nil, fmt.Errorf("spec: line %d: bad ordered flag", line)
				}
				s.ISM.Ordered = b
			}
		default:
			return nil, fmt.Errorf("spec: line %d: unknown directive %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return s, s.Validate()
}

// Validate cross-checks the specification.
func (s *Spec) Validate() error {
	names := map[string]uint16{}
	for _, sn := range s.Sensors {
		names[sn.Name] = sn.Metric
	}
	for _, th := range s.Thresholds {
		if _, ok := names[th.Sensor]; !ok {
			return fmt.Errorf("spec: threshold references unknown sensor %q", th.Sensor)
		}
	}
	if s.Buffer.Capacity < 1 {
		return errors.New("spec: buffer capacity must be >= 1")
	}
	return nil
}

// ISMConfig compiles the manager section.
func (s *Spec) ISMConfig() ism.Config {
	cfg := ism.Config{Ordered: s.ISM.Ordered}
	if s.ISM.Input == "miso" {
		cfg.Buffering = ism.MISO
	}
	return cfg
}

// BottleneckTool compiles the threshold section into a configured
// automated-analysis tool.
func (s *Spec) BottleneckTool() (*env.BottleneckTool, uint64, error) {
	byName := map[string]uint16{}
	for _, sn := range s.Sensors {
		byName[sn.Name] = sn.Metric
	}
	thresholds := map[uint16]float64{}
	alpha := 0.5
	minHits := uint64(1)
	for _, th := range s.Thresholds {
		thresholds[byName[th.Sensor]] = th.Above
		alpha = th.Alpha
		if th.Hits > minHits {
			minHits = th.Hits
		}
	}
	tool, err := env.NewBottleneckTool(thresholds, alpha)
	return tool, minHits, err
}

// Probes compiles the sensor section into live probes for one
// instrumented process: readers maps sensor name to the metric reader.
// Every declared sensor must have a reader.
func (s *Spec) Probes(sensor *event.Sensor, readers map[string]func() int64) ([]*event.Probe, error) {
	probes := make([]*event.Probe, 0, len(s.Sensors))
	for _, sn := range s.Sensors {
		read, ok := readers[sn.Name]
		if !ok {
			return nil, fmt.Errorf("spec: no reader bound for sensor %q", sn.Name)
		}
		probes = append(probes, event.NewProbe(sn.Metric, read, sensor, sn.Every))
	}
	return probes, nil
}

// args is a parsed key=value argument list.
type args map[string]string

func parseArgs(fields []string) (args, error) {
	a := args{}
	for _, f := range fields {
		k, v, ok := strings.Cut(f, "=")
		if !ok || k == "" || v == "" {
			return nil, fmt.Errorf("malformed argument %q (want key=value)", f)
		}
		if _, dup := a[k]; dup {
			return nil, fmt.Errorf("duplicate argument %q", k)
		}
		a[k] = v
	}
	return a, nil
}

func (a args) has(k string) bool   { return a[k] != "" }
func (a args) str(k string) string { return a[k] }

func (a args) float(k string) (float64, error) {
	v, ok := a[k]
	if !ok {
		return 0, fmt.Errorf("missing argument %q", k)
	}
	return strconv.ParseFloat(v, 64)
}

func (a args) uint16(k string) (uint16, error) {
	v, ok := a[k]
	if !ok {
		return 0, fmt.Errorf("missing argument %q", k)
	}
	n, err := strconv.ParseUint(v, 10, 16)
	return uint16(n), err
}

func (a args) duration(k string) (time.Duration, error) {
	v, ok := a[k]
	if !ok {
		return 0, fmt.Errorf("missing argument %q", k)
	}
	return time.ParseDuration(v)
}
