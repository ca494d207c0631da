(** Linear-to-physical translation with page-level protection checks
    (TLB + page walk). *)

type t

val create : ?tlb:Tlb.t -> Phys_mem.t -> dir:Paging.dir -> t

val phys : t -> Phys_mem.t

val tlb : t -> Tlb.t

val directory : t -> Paging.dir

val load_cr3 : t -> Paging.dir -> unit
(** Switch page tables and flush the TLB (task switch). *)

val flush_tlb : t -> unit

val pkru : t -> int
(** The protection-key rights register: bit [2k] denies all data
    access with key [k], bit [2k+1] denies writes.  Reset value 0
    permits everything. *)

val set_pkru : t -> int -> unit
(** Write PKRU.  Does not flush the TLB: entries cache the page's key,
    and the rights register is consulted on every access. *)

val key_ad : int -> int
(** Access-disable PKRU mask for a key. *)

val page_walks : t -> int

(** Per-instance event tallies — page walks and page faults broken
    down by kind.  These mirror the [x86.mmu.*] counters published
    into the owning world's sink, but survive sink swaps and let a
    fleet attribute translation traffic to an individual MMU. *)
type stats = {
  mmu_walks : int;
  mmu_fault_not_present : int;
  mmu_fault_privilege : int;
  mmu_fault_readonly : int;
  mmu_fault_key : int;
}

val stats : t -> stats

val reset_stats : t -> unit

type translation = { phys_addr : int; walked : bool }

val translate : t -> cpl:Privilege.ring -> access:Fault.access -> int -> translation
(** Raises {!Fault.Fault} on page-not-present, user access to a
    supervisor (PPL 0) page, user write to a read-only page, or a data
    access denied by the page's protection key under the current PKRU. *)

val translate_range :
  t -> cpl:Privilege.ring -> access:Fault.access -> int -> int -> translation

val read_u8 : t -> cpl:Privilege.ring -> int -> int

val write_u8 : t -> cpl:Privilege.ring -> int -> int -> unit

val read_u32 : t -> cpl:Privilege.ring -> int -> int

val write_u32 : t -> cpl:Privilege.ring -> int -> int -> unit

val read_bytes : t -> cpl:Privilege.ring -> int -> int -> Bytes.t

val write_bytes : t -> cpl:Privilege.ring -> int -> Bytes.t -> unit
