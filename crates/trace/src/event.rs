//! The typed event vocabulary.
//!
//! Every variant records one hardware- or kernel-level decision in
//! primitive terms so the crate stays a leaf dependency. Each upper layer
//! converts its own types into the local tags ([`Chan`], [`Access`], …) at
//! the emit site.

use std::fmt;

use crate::json::JsonWriter;

/// Which bus channel an access used (mirror of `ptstore_core::Channel`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Chan {
    /// Ordinary load/store/fetch traffic.
    Regular,
    /// The dedicated `ld.pt`/`sd.pt` page-table channel.
    SecurePt,
    /// Hardware page-table-walker fetches.
    Ptw,
}

impl fmt::Display for Chan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Chan::Regular => "regular",
            Chan::SecurePt => "secure-pt",
            Chan::Ptw => "ptw",
        })
    }
}

/// Read / write / execute (mirror of `ptstore_core::AccessKind`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// A data load.
    Read,
    /// A data store.
    Write,
    /// An instruction fetch.
    Execute,
}

impl fmt::Display for Access {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Access::Read => "read",
            Access::Write => "write",
            Access::Execute => "execute",
        })
    }
}

/// Outcome of a PMP check (mirror of the `AccessError` cases plus Allow).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The access passed every check.
    Allowed,
    /// Regular-channel access inside the secure region: the S-bit fired.
    SecureRegionDenied,
    /// `ld.pt`/`sd.pt` aimed outside the secure region.
    SecureInstructionOutsideRegion,
    /// A PTW fetch left the secure region while `satp.S` was set.
    PtwOutsideRegion,
    /// Ordinary R/W/X permission denial of a matching entry.
    PmpDenied,
}

impl Verdict {
    /// True when the access was rejected.
    pub fn is_denied(self) -> bool {
        self != Verdict::Allowed
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Allowed => "allowed",
            Verdict::SecureRegionDenied => "secure-region-denied",
            Verdict::SecureInstructionOutsideRegion => "secure-instruction-outside-region",
            Verdict::PtwOutsideRegion => "ptw-outside-region",
            Verdict::PmpDenied => "pmp-denied",
        })
    }
}

/// Which TLB a lookup went through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlbUnit {
    /// The instruction TLB.
    Instruction,
    /// The data TLB.
    Data,
}

impl fmt::Display for TlbUnit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TlbUnit::Instruction => "itlb",
            TlbUnit::Data => "dtlb",
        })
    }
}

/// Scope of a TLB flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushScope {
    /// Every entry.
    All,
    /// One page of one address space.
    Page {
        /// The flushed virtual page number.
        vpn: u64,
        /// The owning address-space identifier.
        asid: u16,
    },
    /// Every entry of one address space.
    Asid {
        /// The flushed address-space identifier.
        asid: u16,
    },
    /// A run of consecutive pages of one address space — a deferred-
    /// shootdown drain coalescing per-page invalidations into one
    /// broadcast.
    Range {
        /// First virtual page number of the run.
        vpn: u64,
        /// Number of consecutive pages flushed.
        pages: u64,
        /// The owning address-space identifier.
        asid: u16,
    },
}

/// A token-lifecycle operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenOp {
    /// A fresh token bound to a PCB/root pair.
    Issue,
    /// A token duplicated for a forked child.
    Copy,
    /// A token slot wiped (process exit).
    Clear,
    /// A token checked before a `satp` switch.
    Validate,
}

impl fmt::Display for TokenOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TokenOp::Issue => "issue",
            TokenOp::Copy => "copy",
            TokenOp::Clear => "clear",
            TokenOp::Validate => "validate",
        })
    }
}

/// The class of an injected fault, shared vocabulary between the
/// `ptstore-fault` injector, the kernel's IPI tap, and trace consumers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// A bit flip attempted on a page-table entry in the secure region
    /// through the regular channel (the attacker's write primitive).
    PteBitFlip,
    /// An attempted corruption of the PMP secure-region CSRs (modelled as a
    /// rogue SBI `SecureRegionSet` request the firmware must refuse).
    PmpCsrCorrupt,
    /// A corrupted `satp` write pointing the root outside the secure region.
    SatpCorrupt,
    /// A TLB-shootdown IPI silently dropped before reaching its victim.
    IpiDrop,
    /// TLB-shootdown acknowledgements delivered in reversed order.
    IpiReorder,
    /// The PTStore zone drained of free pages mid-workload.
    ZoneExhaust,
    /// A forged page-table pointer written into a PCB (token-forging).
    TokenForge,
    /// A queued remote invalidation silently discarded before its drain:
    /// the batched-shootdown queue loses one `(asid, vpn)` entry, so the
    /// remote TLBs it targeted are never flushed (a missed-drain kernel
    /// bug; on a security boundary the oracle must flag it).
    DrainDrop,
    /// A watermark-triggered *early* drain skipped whole: the queue keeps
    /// its entries past the configured depth until the next mandatory
    /// security-boundary drain delivers them (behaviour-preserving — the
    /// watermark is pure performance placement).
    WatermarkSkip,
}

impl FaultClass {
    /// Every fault class, in campaign order.
    pub const ALL: [FaultClass; 9] = [
        FaultClass::PteBitFlip,
        FaultClass::PmpCsrCorrupt,
        FaultClass::SatpCorrupt,
        FaultClass::IpiDrop,
        FaultClass::IpiReorder,
        FaultClass::ZoneExhaust,
        FaultClass::TokenForge,
        FaultClass::DrainDrop,
        FaultClass::WatermarkSkip,
    ];
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultClass::PteBitFlip => "pte-bit-flip",
            FaultClass::PmpCsrCorrupt => "pmp-csr-corrupt",
            FaultClass::SatpCorrupt => "satp-corrupt",
            FaultClass::IpiDrop => "ipi-drop",
            FaultClass::IpiReorder => "ipi-reorder",
            FaultClass::ZoneExhaust => "zone-exhaust",
            FaultClass::TokenForge => "token-forge",
            FaultClass::DrainDrop => "drain-drop",
            FaultClass::WatermarkSkip => "watermark-skip",
        })
    }
}

/// The check that finally rejected an access, in the paper's terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectingLayer {
    /// The PMP S-bit: regular-channel access into the secure region.
    PmpSBit,
    /// A dedicated-channel or PTW placement violation caught by the PMP.
    PmpChannel,
    /// The walker's `satp.S` origin check.
    PtwOriginCheck,
    /// Token validation before a `satp` switch.
    TokenValidation,
}

impl fmt::Display for RejectingLayer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RejectingLayer::PmpSBit => "pmp-s-bit",
            RejectingLayer::PmpChannel => "pmp-channel",
            RejectingLayer::PtwOriginCheck => "ptw-origin-check",
            RejectingLayer::TokenValidation => "token-validation",
        })
    }
}

/// One traced decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A PMP unit decision. `entry` is the index of the matching PMP entry
    /// (`None` when no entry matched and the default policy applied).
    PmpCheck {
        /// The checked physical address.
        addr: u64,
        /// Read, write, or execute.
        kind: Access,
        /// The channel the access arrived on.
        channel: Chan,
        /// Index of the matching PMP entry, if any.
        entry: Option<u8>,
        /// The decision.
        verdict: Verdict,
    },
    /// A bus read that passed its checks.
    BusRead {
        /// The physical address.
        addr: u64,
        /// Access width in bytes.
        width: u8,
        /// The channel used.
        channel: Chan,
    },
    /// A bus write that passed its checks.
    BusWrite {
        /// The physical address.
        addr: u64,
        /// Access width in bytes.
        width: u8,
        /// The channel used.
        channel: Chan,
    },
    /// An instruction fetch that passed its checks.
    BusFetch {
        /// The physical address.
        addr: u64,
        /// Fetch width in bytes.
        width: u8,
    },
    /// One level of a page-table walk (after the PTE was fetched).
    PtwStep {
        /// The virtual address being translated.
        va: u64,
        /// The walk level (2 = root for Sv39).
        level: u8,
        /// Physical address the PTE was fetched from.
        pte_addr: u64,
        /// The raw PTE bits.
        pte: u64,
    },
    /// The walker's fetch was rejected by the `satp.S` origin check.
    PtwOriginRejected {
        /// The virtual address being translated.
        va: u64,
        /// The out-of-region PTE address the walk tried to fetch.
        pte_addr: u64,
    },
    /// A TLB lookup hit.
    TlbHit {
        /// Instruction or data TLB.
        unit: TlbUnit,
        /// The looked-up virtual page number.
        vpn: u64,
        /// The address-space identifier.
        asid: u16,
        /// The hart performing the lookup.
        hart: u32,
    },
    /// A TLB lookup missed (including permission-mismatch misses).
    TlbMiss {
        /// Instruction or data TLB.
        unit: TlbUnit,
        /// The looked-up virtual page number.
        vpn: u64,
        /// The address-space identifier.
        asid: u16,
        /// The hart performing the lookup.
        hart: u32,
    },
    /// A TLB flush.
    TlbFlush {
        /// Instruction or data TLB.
        unit: TlbUnit,
        /// What the flush covered.
        scope: FlushScope,
        /// The hart whose TLB was flushed.
        hart: u32,
    },
    /// A cross-hart TLB shootdown: `from_hart` broadcast an IPI carrying
    /// `scope` and collected `acks` acknowledgements from the remote harts.
    TlbShootdown {
        /// What the shootdown covered.
        scope: FlushScope,
        /// The initiating hart.
        from_hart: u32,
        /// Acknowledgements collected.
        acks: u32,
    },
    /// A token-lifecycle operation. `ok == false` means the operation
    /// rejected (validation failure / pointer outside the secure region).
    Token {
        /// Which lifecycle step ran.
        op: TokenOp,
        /// The process whose token was touched.
        pid: u64,
        /// Whether the operation passed.
        ok: bool,
    },
    /// Syscall entry.
    SyscallEnter {
        /// The syscall's name.
        name: &'static str,
    },
    /// Syscall exit, with the cycles the call cost end to end.
    SyscallExit {
        /// The syscall's name.
        name: &'static str,
        /// Modeled cycles from entry to exit.
        cycles: u64,
    },
    /// The secure-region boundary moved (dynamic adjustment or initial
    /// installation via SBI).
    RegionMove {
        /// The region base before the move.
        old_base: u64,
        /// The region base after the move.
        new_base: u64,
        /// The (unchanged) region end.
        end: u64,
    },
    /// The `ptstore-fault` injector fired one fault on `hart`.
    FaultInjected {
        /// The injected fault class.
        kind: FaultClass,
        /// The hart the fault landed on.
        hart: u32,
    },
    /// A planted IPI fault perturbed a shootdown broadcast: the IPI to
    /// `victim` was dropped, or the ack collection ran in reversed order.
    IpiFault {
        /// Which IPI perturbation fired.
        kind: FaultClass,
        /// The hart whose IPI was perturbed.
        victim: u32,
    },
    /// One invariant-oracle sweep: `checks` invariants evaluated,
    /// `violations` of them failed.
    InvariantCheck {
        /// Invariants evaluated.
        checks: u32,
        /// How many failed.
        violations: u32,
    },
}

impl TraceEvent {
    /// True when this event records a rejected access or operation.
    pub fn is_denial(&self) -> bool {
        self.rejecting_layer().is_some()
    }

    /// When this event records a denial: the check that rejected it, in the
    /// paper's vocabulary (PMP S-bit, PTW origin check, token validation).
    pub fn rejecting_layer(&self) -> Option<RejectingLayer> {
        match self {
            TraceEvent::PmpCheck { verdict, .. } => match verdict {
                Verdict::Allowed => None,
                Verdict::SecureRegionDenied => Some(RejectingLayer::PmpSBit),
                Verdict::PtwOutsideRegion => Some(RejectingLayer::PtwOriginCheck),
                Verdict::SecureInstructionOutsideRegion | Verdict::PmpDenied => {
                    Some(RejectingLayer::PmpChannel)
                }
            },
            TraceEvent::PtwOriginRejected { .. } => Some(RejectingLayer::PtwOriginCheck),
            TraceEvent::Token {
                op: TokenOp::Validate,
                ok: false,
                ..
            } => Some(RejectingLayer::TokenValidation),
            TraceEvent::Token { ok: false, .. } => Some(RejectingLayer::TokenValidation),
            _ => None,
        }
    }

    /// Writes a [`FlushScope`]'s discriminant and operands as JSON fields.
    fn scope_fields(w: &mut JsonWriter, scope: &FlushScope) {
        match scope {
            FlushScope::All => w.str_field("scope", "all"),
            FlushScope::Page { vpn, asid } => {
                w.str_field("scope", "page");
                w.hex_field("vpn", *vpn);
                w.num_field("asid", u64::from(*asid));
            }
            FlushScope::Asid { asid } => {
                w.str_field("scope", "asid");
                w.num_field("asid", u64::from(*asid));
            }
            FlushScope::Range { vpn, pages, asid } => {
                w.str_field("scope", "range");
                w.hex_field("vpn", *vpn);
                w.num_field("pages", *pages);
                w.num_field("asid", u64::from(*asid));
            }
        }
    }

    /// Serialises this event as one JSON object.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        match self {
            TraceEvent::PmpCheck {
                addr,
                kind,
                channel,
                entry,
                verdict,
            } => {
                w.str_field("type", "pmp_check");
                w.hex_field("addr", *addr);
                w.str_field("kind", &kind.to_string());
                w.str_field("channel", &channel.to_string());
                match entry {
                    Some(i) => w.num_field("entry", u64::from(*i)),
                    None => w.null_field("entry"),
                }
                w.str_field("verdict", &verdict.to_string());
            }
            TraceEvent::BusRead {
                addr,
                width,
                channel,
            } => {
                w.str_field("type", "bus_read");
                w.hex_field("addr", *addr);
                w.num_field("width", u64::from(*width));
                w.str_field("channel", &channel.to_string());
            }
            TraceEvent::BusWrite {
                addr,
                width,
                channel,
            } => {
                w.str_field("type", "bus_write");
                w.hex_field("addr", *addr);
                w.num_field("width", u64::from(*width));
                w.str_field("channel", &channel.to_string());
            }
            TraceEvent::BusFetch { addr, width } => {
                w.str_field("type", "bus_fetch");
                w.hex_field("addr", *addr);
                w.num_field("width", u64::from(*width));
            }
            TraceEvent::PtwStep {
                va,
                level,
                pte_addr,
                pte,
            } => {
                w.str_field("type", "ptw_step");
                w.hex_field("va", *va);
                w.num_field("level", u64::from(*level));
                w.hex_field("pte_addr", *pte_addr);
                w.hex_field("pte", *pte);
            }
            TraceEvent::PtwOriginRejected { va, pte_addr } => {
                w.str_field("type", "ptw_origin_rejected");
                w.hex_field("va", *va);
                w.hex_field("pte_addr", *pte_addr);
            }
            TraceEvent::TlbHit {
                unit,
                vpn,
                asid,
                hart,
            } => {
                w.str_field("type", "tlb_hit");
                w.str_field("unit", &unit.to_string());
                w.hex_field("vpn", *vpn);
                w.num_field("asid", u64::from(*asid));
                w.num_field("hart", u64::from(*hart));
            }
            TraceEvent::TlbMiss {
                unit,
                vpn,
                asid,
                hart,
            } => {
                w.str_field("type", "tlb_miss");
                w.str_field("unit", &unit.to_string());
                w.hex_field("vpn", *vpn);
                w.num_field("asid", u64::from(*asid));
                w.num_field("hart", u64::from(*hart));
            }
            TraceEvent::TlbFlush { unit, scope, hart } => {
                w.str_field("type", "tlb_flush");
                w.str_field("unit", &unit.to_string());
                Self::scope_fields(&mut w, scope);
                w.num_field("hart", u64::from(*hart));
            }
            TraceEvent::TlbShootdown {
                scope,
                from_hart,
                acks,
            } => {
                w.str_field("type", "tlb_shootdown");
                Self::scope_fields(&mut w, scope);
                w.num_field("from_hart", u64::from(*from_hart));
                w.num_field("acks", u64::from(*acks));
            }
            TraceEvent::Token { op, pid, ok } => {
                w.str_field("type", "token");
                w.str_field("op", &op.to_string());
                w.num_field("pid", *pid);
                w.bool_field("ok", *ok);
            }
            TraceEvent::SyscallEnter { name } => {
                w.str_field("type", "syscall_enter");
                w.str_field("name", name);
            }
            TraceEvent::SyscallExit { name, cycles } => {
                w.str_field("type", "syscall_exit");
                w.str_field("name", name);
                w.num_field("cycles", *cycles);
            }
            TraceEvent::FaultInjected { kind, hart } => {
                w.str_field("type", "fault_injected");
                w.str_field("kind", &kind.to_string());
                w.num_field("hart", u64::from(*hart));
            }
            TraceEvent::IpiFault { kind, victim } => {
                w.str_field("type", "ipi_fault");
                w.str_field("kind", &kind.to_string());
                w.num_field("victim", u64::from(*victim));
            }
            TraceEvent::InvariantCheck { checks, violations } => {
                w.str_field("type", "invariant_check");
                w.num_field("checks", u64::from(*checks));
                w.num_field("violations", u64::from(*violations));
            }
            TraceEvent::RegionMove {
                old_base,
                new_base,
                end,
            } => {
                w.str_field("type", "region_move");
                w.hex_field("old_base", *old_base);
                w.hex_field("new_base", *new_base);
                w.hex_field("end", *end);
            }
        }
        if let Some(layer) = self.rejecting_layer() {
            w.str_field("rejecting_layer", &layer.to_string());
        }
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn denial_attribution_matches_paper_vocabulary() {
        let pmp = TraceEvent::PmpCheck {
            addr: 0x1000,
            kind: Access::Write,
            channel: Chan::Regular,
            entry: Some(1),
            verdict: Verdict::SecureRegionDenied,
        };
        assert_eq!(pmp.rejecting_layer(), Some(RejectingLayer::PmpSBit));

        let ptw = TraceEvent::PtwOriginRejected {
            va: 0xffff_ffc0_0000_0000,
            pte_addr: 0x20_0000,
        };
        assert_eq!(ptw.rejecting_layer(), Some(RejectingLayer::PtwOriginCheck));

        let token = TraceEvent::Token {
            op: TokenOp::Validate,
            pid: 3,
            ok: false,
        };
        assert_eq!(
            token.rejecting_layer(),
            Some(RejectingLayer::TokenValidation)
        );

        let ok = TraceEvent::BusRead {
            addr: 0,
            width: 8,
            channel: Chan::Regular,
        };
        assert_eq!(ok.rejecting_layer(), None);
    }

    #[test]
    fn json_contains_type_and_attribution() {
        let e = TraceEvent::PmpCheck {
            addr: 0xabc,
            kind: Access::Read,
            channel: Chan::Ptw,
            entry: None,
            verdict: Verdict::PtwOutsideRegion,
        };
        let j = e.to_json();
        assert!(j.contains("\"type\":\"pmp_check\""), "{j}");
        assert!(j.contains("\"entry\":null"), "{j}");
        assert!(
            j.contains("\"rejecting_layer\":\"ptw-origin-check\""),
            "{j}"
        );
        assert!(j.contains("\"addr\":\"0xabc\""), "{j}");
    }

    #[test]
    fn shootdown_event_carries_hart_ids() {
        let e = TraceEvent::TlbShootdown {
            scope: FlushScope::Page { vpn: 0x40, asid: 3 },
            from_hart: 1,
            acks: 3,
        };
        assert!(!e.is_denial());
        let j = e.to_json();
        assert!(j.contains("\"type\":\"tlb_shootdown\""), "{j}");
        assert!(j.contains("\"from_hart\":1"), "{j}");
        assert!(j.contains("\"acks\":3"), "{j}");
        assert!(j.contains("\"scope\":\"page\""), "{j}");
    }
}
