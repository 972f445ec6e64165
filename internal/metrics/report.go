package metrics

import (
	"io"

	"repro/internal/jsonw"
	"repro/internal/obsv"
)

// Schema identifies the JSON layout of Report. Bump it when a field
// changes meaning or disappears; adding fields is backward compatible.
const Schema = "jade-metrics/v1"

// Report is the machine-readable form of a Run with a stable schema,
// consumed by jadebench -json, CI, and the BENCH_*.json trajectory.
// All durations are virtual seconds.
type Report struct {
	Schema          string  `json:"schema"`
	Procs           int     `json:"procs"`
	ExecTimeSec     float64 `json:"exec_time_sec"`
	TaskCount       int     `json:"task_count"`
	TasksOnTarget   int     `json:"tasks_on_target"`
	LocalityPct     float64 `json:"locality_pct"`
	TaskExecSec     float64 `json:"task_exec_sec"`
	MsgBytes        int64   `json:"msg_bytes"`
	MsgCount        int64   `json:"msg_count"`
	BroadcastCount  int     `json:"broadcast_count"`
	ReplicatedReads int64   `json:"replicated_reads"`
	// The fault counters are omitted when zero so healthy-run reports
	// are byte-identical to those of builds without fault injection.
	MsgDropped         int64 `json:"msg_dropped,omitempty"`
	MsgRetransmits     int64 `json:"msg_retransmits,omitempty"`
	MsgDuplicates      int64 `json:"msg_duplicates,omitempty"`
	FaultInvalidations int64 `json:"fault_invalidations,omitempty"`
	// The PGAS counters are likewise omitted when zero, so dash/ipsc/
	// cluster reports are byte-identical to pre-PGAS output.
	RemoteGets      int64 `json:"remote_gets,omitempty"`
	RemotePuts      int64 `json:"remote_puts,omitempty"`
	AggregatedMsgs  int64 `json:"aggregated_msgs,omitempty"`
	AggBenefitBytes int64 `json:"agg_benefit_bytes,omitempty"`
	// The granularity-pass counters are omitted when zero, so runs
	// with fusion and coalescing off stay byte-identical to earlier
	// output.
	TasksFused         int64          `json:"tasks_fused,omitempty"`
	MsgsCoalesced      int64          `json:"msgs_coalesced,omitempty"`
	FusionBenefitBytes int64          `json:"fusion_benefit_bytes,omitempty"`
	ObjectLatencySec   float64        `json:"object_latency_sec"`
	TaskLatencySec     float64        `json:"task_latency_sec"`
	TaskMgmtSec        float64        `json:"task_mgmt_sec"`
	RemoteBytes        int64          `json:"remote_bytes"`
	LocalBytes         int64          `json:"local_bytes"`
	ProcBusySec        []float64      `json:"proc_busy_sec"`
	Utilization        []float64      `json:"utilization"`
	OverBusy           []int          `json:"over_busy,omitempty"`
	CommCompMBPerSec   float64        `json:"comm_comp_mb_per_sec"`
	Observability      *obsv.Snapshot `json:"observability,omitempty"`
}

// Report converts the run into its stable machine-readable form.
func (r *Run) Report() *Report {
	rep := r.report()
	rep.ProcBusySec = append([]float64(nil), r.ProcBusy...)
	rep.Utilization = r.Utilization()
	return &rep
}

// report is Report sharing the run's ProcBusy slice, which Report
// copies (an empty one reads as nil, as Report's copy does), and
// without Utilization, which Report builds and WriteJSON encodes in
// place.
func (r *Run) report() Report {
	rep := Report{
		Schema:             Schema,
		Procs:              r.Procs,
		ExecTimeSec:        r.ExecTime,
		TaskCount:          r.TaskCount,
		TasksOnTarget:      r.TasksOnTarget,
		LocalityPct:        r.LocalityPct(),
		TaskExecSec:        r.TaskExecTotal,
		MsgBytes:           r.MsgBytes,
		MsgCount:           r.MsgCount,
		BroadcastCount:     r.BroadcastCount,
		ReplicatedReads:    r.ReplicatedReads,
		MsgDropped:         r.MsgDropped,
		MsgRetransmits:     r.MsgRetransmits,
		MsgDuplicates:      r.MsgDuplicates,
		FaultInvalidations: r.FaultInvalidations,
		RemoteGets:         r.RemoteGets,
		RemotePuts:         r.RemotePuts,
		AggregatedMsgs:     r.AggregatedMsgs,
		AggBenefitBytes:    r.AggBenefitBytes,
		TasksFused:         r.TasksFused,
		MsgsCoalesced:      r.MsgsCoalesced,
		FusionBenefitBytes: r.FusionBenefitBytes,
		ObjectLatencySec:   r.ObjectLatency,
		TaskLatencySec:     r.TaskLatency,
		TaskMgmtSec:        r.TaskMgmtTime,
		RemoteBytes:        r.RemoteBytes,
		LocalBytes:         r.LocalBytes,
		OverBusy:           r.OverBusy(),
		CommCompMBPerSec:   r.CommCompRatio(),
		Observability:      r.Obsv,
	}
	if len(r.ProcBusy) > 0 {
		rep.ProcBusySec = r.ProcBusy
	}
	return rep
}

// WriteJSON writes the run's report as indented JSON, byte-identical
// to encoding/json's Encoder with a two-space indent. The utilization
// array is encoded from ProcBusy and ExecTime, never built.
func (r *Run) WriteJSON(w io.Writer) error {
	rep := r.report()
	a := jsonw.Start(w)
	rep.appendJSON(&a, r)
	return a.Finish(w)
}

// AppendJSON appends the report, or null when rep is nil, as one
// jade-metrics/v1 object with its fields in declaration order. Only the
// observability block goes through encoding/json.
func (rep *Report) AppendJSON(a *jsonw.Appender) { rep.appendJSON(a, nil) }

// appendJSON is AppendJSON with the utilization array taken from run,
// when it is non-nil, instead of from rep.Utilization.
func (rep *Report) appendJSON(a *jsonw.Appender, run *Run) {
	if rep == nil {
		a.Null()
		return
	}
	a.Open('{')
	a.Key("schema").String(rep.Schema)
	a.Key("procs").Int(int64(rep.Procs))
	a.Key("exec_time_sec").Float(rep.ExecTimeSec)
	a.Key("task_count").Int(int64(rep.TaskCount))
	a.Key("tasks_on_target").Int(int64(rep.TasksOnTarget))
	a.Key("locality_pct").Float(rep.LocalityPct)
	a.Key("task_exec_sec").Float(rep.TaskExecSec)
	a.Key("msg_bytes").Int(rep.MsgBytes)
	a.Key("msg_count").Int(rep.MsgCount)
	a.Key("broadcast_count").Int(int64(rep.BroadcastCount))
	a.Key("replicated_reads").Int(rep.ReplicatedReads)
	omitZero(a, "msg_dropped", rep.MsgDropped)
	omitZero(a, "msg_retransmits", rep.MsgRetransmits)
	omitZero(a, "msg_duplicates", rep.MsgDuplicates)
	omitZero(a, "fault_invalidations", rep.FaultInvalidations)
	omitZero(a, "remote_gets", rep.RemoteGets)
	omitZero(a, "remote_puts", rep.RemotePuts)
	omitZero(a, "aggregated_msgs", rep.AggregatedMsgs)
	omitZero(a, "agg_benefit_bytes", rep.AggBenefitBytes)
	omitZero(a, "tasks_fused", rep.TasksFused)
	omitZero(a, "msgs_coalesced", rep.MsgsCoalesced)
	omitZero(a, "fusion_benefit_bytes", rep.FusionBenefitBytes)
	a.Key("object_latency_sec").Float(rep.ObjectLatencySec)
	a.Key("task_latency_sec").Float(rep.TaskLatencySec)
	a.Key("task_mgmt_sec").Float(rep.TaskMgmtSec)
	a.Key("remote_bytes").Int(rep.RemoteBytes)
	a.Key("local_bytes").Int(rep.LocalBytes)
	a.Key("proc_busy_sec").Floats(rep.ProcBusySec)
	a.Key("utilization")
	switch {
	case run == nil:
		a.Floats(rep.Utilization)
	case run.ExecTime <= 0:
		a.Null() // Run.Utilization's nil
	default:
		a.FloatsFunc(len(run.ProcBusy), func(i int) float64 { return run.ProcBusy[i] / run.ExecTime })
	}
	if len(rep.OverBusy) > 0 {
		a.Key("over_busy").Ints(rep.OverBusy)
	}
	a.Key("comm_comp_mb_per_sec").Float(rep.CommCompMBPerSec)
	if rep.Observability != nil {
		a.Key("observability").Indented(rep.Observability)
	}
	a.Close('}')
}

// omitZero appends the omitempty member key unless v is zero.
func omitZero(a *jsonw.Appender, key string, v int64) {
	if v != 0 {
		a.Key(key).Int(v)
	}
}
