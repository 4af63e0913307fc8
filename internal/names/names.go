// Package names is the central registry of metric and trace-span names.
//
// Every instrument registered with internal/metrics and every span recorded
// through internal/trace takes its name from a constant declared here, so
// dashboards, the attribution sweep, and downstream trace tooling have one
// place to look and names cannot drift between components. The package's
// tests check this at runtime: every metric key and span name a fully
// instrumented run registers must be a declared name or derived from one
// through PerChannel, Dummy or Scheme.
//
// The naming convention is dotted lowercase: dot-separated segments of
// [a-z0-9] runs joined by '_', '-', or '+' (the bus uses '+' to describe
// packed wire legs, e.g. "cmd+data+mac"). A test checks every constant
// declared here against that grammar, so the registry itself cannot rot
// either.
package names

import "strconv"

// Name is a registered metric, scope, or span name. The underlying type is
// string so untyped constants convert freely; the registry tests, not the
// type system, are what confine names to this package's declarations.
type Name string

// String returns the name as a plain string.
func (n Name) String() string { return string(n) }

// PerChannel derives the per-channel scope "base.ch<i>" (e.g. "bus.ch0").
func PerChannel(base Name, ch int) Name {
	return base + Name(".ch"+strconv.Itoa(ch))
}

// Dummy marks a span name as describing dummy (obfuscation) traffic.
func Dummy(n Name) Name { return n + ".dummy" }

// Scheme converts a registered backend scheme name (see internal/backend's
// registry) into a Name, so per-scheme metric scopes like
// "leakage.obfusmem-auth" can be derived without laundering arbitrary
// strings: scheme names are themselves a closed, registry-audited set.
func Scheme(scheme string) Name { return Name(scheme) }

// Metric scopes, one per instrumented component.
const (
	ScopeBus      Name = "bus"
	ScopeFault    Name = "fault"
	ScopeObfus    Name = "obfus"
	ScopeMemctl   Name = "memctl"
	ScopePCM      Name = "pcm"
	ScopePalermo  Name = "palermo"
	ScopeLeakage  Name = "leakage"
	ScopeCampaign Name = "campaign"
)

// Campaign-runner metrics (internal/campaign), recorded under "campaign".
// Counters accumulate over one process lifetime; a resumed campaign's
// CellsResumed counts the cells it did NOT have to re-run.
const (
	CampCellsTotal     Name = "cells_total"
	CampCellsUnique    Name = "cells_unique"
	CampCellsDone      Name = "cells_done"
	CampCellsFailed    Name = "cells_failed"
	CampCellsResumed   Name = "cells_resumed"
	CampDedupHits      Name = "dedup_hits"
	CampPanics         Name = "panics"
	CampDeadlines      Name = "deadline_exceeded"
	CampJournalRecords Name = "journal_records"
	CampJournalBytes   Name = "journal_bytes"
)

// Leakage-observatory metrics (internal/leakage), recorded per scheme under
// "leakage.<scheme>" (see Scheme). Gauges hold the aggregated scores of one
// leakage sweep; WirePackets counts the observed evidence they rest on.
const (
	LeakMIBitsPerReq       Name = "mi_bits_per_request"
	LeakMIPluginBitsPerReq Name = "mi_plugin_bits_per_request"
	LeakRecoveryAccuracy   Name = "recovery_accuracy"
	LeakClassifierAdv      Name = "classifier_advantage"
	LeakWirePackets        Name = "wire_packets"
	LeakAnchors            Name = "anchors"
)

// Bus per-channel metrics (internal/bus, scope "bus.ch<i>").
const (
	BusCmdPackets     Name = "cmd_packets"
	BusReadPackets    Name = "read_packets"
	BusWritePackets   Name = "write_packets"
	BusDummyPackets   Name = "dummy_packets"
	BusControlPackets Name = "control_packets"
	BusBytes          Name = "bytes"
	BusReqBusyPS      Name = "req_busy_ps"
	BusRespBusyPS     Name = "resp_busy_ps"
)

// Fault-injector metrics (internal/fault). FaultLostRequests is recorded by
// the backends themselves (internal/backend, internal/palermo): a real
// request whose command or reply leg a fault dropped and that no recovery
// protocol brought back — the request-level consequence of FaultLosses.
const (
	FaultLosses       Name = "losses"
	FaultCmdFlips     Name = "cmd_flips"
	FaultDataFlips    Name = "data_flips"
	FaultMACFlips     Name = "mac_flips"
	FaultStalls       Name = "stalls"
	FaultStallPS      Name = "stall_ps"
	FaultLostRequests Name = "lost_requests"
)

// ObfusMem controller metrics (internal/obfus).
const (
	ObfusRealReads         Name = "real_reads"
	ObfusRealWrites        Name = "real_writes"
	ObfusDummyReads        Name = "dummy_reads"
	ObfusDummyWrites       Name = "dummy_writes"
	ObfusInterChannelPairs Name = "inter_channel_pairs"
	ObfusSubstitutedPairs  Name = "substituted_pairs"
	ObfusDroppedAtMemory   Name = "dropped_at_memory"
	ObfusIdleEpochFills    Name = "idle_epoch_fills"
	ObfusMACsComputed      Name = "macs_computed"
	ObfusTamperDetected    Name = "tamper_detected"
	ObfusRetransmits       Name = "retransmits"
	ObfusNACKsSent         Name = "nacks_sent"
	ObfusResyncs           Name = "resyncs"
	ObfusRecovered         Name = "recovered"
	ObfusQuarantines       Name = "quarantines"
	ObfusMACSlackNS        Name = "mac_slack_ns"
	ObfusRecoveryNS        Name = "recovery_latency_ns"
)

// Palermo controller metrics (internal/palermo).
const (
	PalermoAccesses    Name = "accesses"
	PalermoPathReads   Name = "path_reads"
	PalermoEvictWrites Name = "evict_writes"
	PalermoBatches     Name = "batches"
	PalermoLostBlocks  Name = "lost_blocks"
)

// Memory-controller metrics (internal/memctl, scope "memctl.ch<i>").
const (
	MemctlReads          Name = "reads"
	MemctlWrites         Name = "writes"
	MemctlDroppedDummies Name = "dropped_dummies"
)

// PCM device metrics (internal/pcm, scope "pcm.ch<i>").
const (
	PCMRowHits       Name = "row_hits"
	PCMRowMisses     Name = "row_misses"
	PCMBankConflicts Name = "bank_conflicts"
	PCMArrayWrites   Name = "array_writes"
	PCMAccessNS      Name = "access_ns"
	PCMBankWaitNS    Name = "bank_wait_ns"
	PCMMaxWear       Name = "max_wear"
)

// Request-envelope kinds (trace.BeginRequest).
const (
	ReqRead  Name = "read"
	ReqWrite Name = "write"
)

// Bus spans. The leg names describe a packet's wire composition; control
// packets reuse the ControlKind names below.
const (
	SpanLinkWait   Name = "link-wait"
	SpanFaultStall Name = "fault-stall"

	LegCmd        Name = "cmd"
	LegData       Name = "data"
	LegMAC        Name = "mac"
	LegCmdData    Name = "cmd+data"
	LegCmdMAC     Name = "cmd+mac"
	LegDataMAC    Name = "data+mac"
	LegCmdDataMAC Name = "cmd+data+mac"
	LegNone       Name = "empty"

	ControlNone       Name = "none"
	ControlNACK       Name = "nack"
	ControlResyncReq  Name = "resync-req"
	ControlResyncResp Name = "resync-resp"
)

// ObfusMem controller and recovery spans (internal/obfus).
const (
	SpanFrontendWait   Name = "frontend-wait"
	SpanFrontend       Name = "frontend"
	SpanEncryptPads    Name = "encrypt-pads"
	SpanMACRequest     Name = "mac-request"
	SpanMemDecode      Name = "mem-decode"
	SpanTamperDetected Name = "tamper-detected"
	SpanReplyEncrypt   Name = "reply-encrypt"
	SpanReplyDecode    Name = "reply-decode"
	SpanSubstituteReal Name = "substitute-real"

	SpanNACK         Name = "nack"
	SpanRetryTimer   Name = "retry-timer"
	SpanResyncTimer  Name = "resync-timer"
	SpanCtrResync    Name = "ctr-resync"
	SpanRetryBackoff Name = "retry-backoff"
	SpanRecovered    Name = "recovered"
	SpanQuarantine   Name = "quarantine"
)

// Palermo controller spans (internal/palermo).
const (
	SpanPalermoProtocol Name = "protocol"
	SpanPathRead        Name = "path-read"
	SpanEvictFlush      Name = "evict-flush"
)

// Leakage-analysis phase spans (internal/leakage): one span per pipeline
// phase of a trace evaluation, extending over the observed wire window.
const (
	SpanLeakFeatures Name = "leakage-features"
	SpanLeakRecover  Name = "leakage-recover"
	SpanLeakScore    Name = "leakage-score"
	SpanLeakMI       Name = "leakage-mi"
)

// Campaign-runner spans (internal/campaign): one span per committed cell
// on the campaign's virtual timeline (cumulative simulated time, commit
// order).
const (
	SpanCampaignCell       Name = "campaign-cell"
	SpanCampaignCellFailed Name = "campaign-cell-failed"
)

// Memory-controller spans (internal/memctl).
const (
	SpanDecode       Name = "decode"
	SpanDummyDropped Name = "dummy-dropped"
)

// PCM spans (internal/pcm).
const (
	SpanBankWait    Name = "bank-wait"
	SpanRowHit      Name = "row-hit"
	SpanRowMiss     Name = "row-miss"
	SpanRowConflict Name = "row-conflict"
)
