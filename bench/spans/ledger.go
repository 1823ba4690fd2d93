package spans

import (
	"fmt"
	"io"
)

// Stage is one line of a workload's cost ledger: a layer probe's cost
// per record, already weighted by how often the workload's path runs it
// (frames per record, share of paired records, shard count).
type Stage struct {
	Name     string
	NsPerRec float64
}

// Ledger reconciles the layer probes on a workload's path against the
// CPU the whole process spent per record. The gap is reported, not
// hidden: it is the target list for in-program stage stamps.
type Ledger struct {
	Workload string
	Stages   []Stage
	// Loadgen is the benchmark's own generator cost per record, which
	// shares the process with the system under test.
	Loadgen float64
	// EndToEnd is the measured cpu_ns_per_rec of the untraced run.
	EndToEnd float64
}

// Attributed is the sum of the stages.
func (l Ledger) Attributed() float64 {
	var sum float64
	for _, s := range l.Stages {
		sum += s.NsPerRec
	}
	return sum
}

// Unattributed is what the stages and the generator leave unexplained.
// It is negative when the probes, each run alone with warm caches and
// no contention, overstate what the pipeline pays.
func (l Ledger) Unattributed() float64 {
	return l.EndToEnd - l.Attributed() - l.Loadgen
}

// Render prints the ledger as a table: stage, ns/rec, share of the
// end-to-end figure, then the sum, the generator, the gap and the
// end-to-end figure they add up to.
func (l Ledger) Render(w io.Writer) {
	share := func(v float64) float64 {
		if l.EndToEnd == 0 {
			return 0
		}
		return 100 * v / l.EndToEnd
	}
	fmt.Fprintf(w, "ledger %s (ns of process CPU per record)\n", l.Workload)
	fmt.Fprintf(w, "  %-34s %10s %7s\n", "stage", "ns/rec", "share")
	for _, s := range l.Stages {
		fmt.Fprintf(w, "  %-34s %10.2f %6.1f%%\n", s.Name, s.NsPerRec, share(s.NsPerRec))
	}
	fmt.Fprintf(w, "  %-34s %10.2f %6.1f%%\n", "attributed (sum of stages)", l.Attributed(), share(l.Attributed()))
	fmt.Fprintf(w, "  %-34s %10.2f %6.1f%%\n", "loadgen", l.Loadgen, share(l.Loadgen))
	fmt.Fprintf(w, "  %-34s %10.2f %6.1f%%\n", "unattributed (gap)", l.Unattributed(), share(l.Unattributed()))
	fmt.Fprintf(w, "  %-34s %10.2f %6.1f%%\n", "end to end (cpu_ns_per_rec)", l.EndToEnd, 100.0)
}
