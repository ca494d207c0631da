(** Per-process user address spaces (0-3 GByte), demand paged, with
    the Palladium PPL policy: after promotion (init_PL), writable
    application pages are supervisor (PPL 0); extension areas, shared
    areas, the GOT/PLT and read-only pages stay user (PPL 1). *)

type t

val create : phys:X86.Phys_mem.t -> dir:X86.Paging.dir -> t

val directory : t -> X86.Paging.dir

val areas : t -> Vm_area.t list

val is_promoted : t -> bool

val is_mpk : t -> bool
(** [true] after {!mpk_promote}: the space runs under the protection-
    key backend (flat segments, keys instead of PPLs). *)

val find_area : t -> int -> Vm_area.t option

exception Overlap

val map_area :
  t ->
  ?label:string ->
  va_start:int ->
  len:int ->
  perms:Vm_area.perms ->
  Vm_area.kind ->
  Vm_area.t
(** Fixed-address mapping (page-rounded); PPL follows the promotion
    policy. *)

val mmap :
  t ->
  ?addr:int ->
  ?label:string ->
  len:int ->
  perms:Vm_area.perms ->
  Vm_area.kind ->
  Vm_area.t

val munmap : t -> addr:int -> len:int -> int
(** Unmap overlapping areas and free their frames; returns the number
    of areas dropped. *)

val demand_map : t -> addr:int -> access:X86.Fault.access -> bool
(** Page-fault service: [true] when the page was validly missing and
    is now mapped. *)

val populate : t -> Vm_area.t -> unit
(** Eagerly map every page of an area. *)

val promote : t -> int
(** init_PL's memory side: writable non-extension pages become
    supervisor.  Returns PTEs touched. *)

val set_range :
  t -> addr:int -> len:int -> X86.Privilege.page_level -> (int, Errno.t) result

val mpk_promote : t -> app_key:int -> int
(** init_mpk's memory side: the MPK analogue of {!promote}.  Writable
    non-extension areas receive [app_key]; pages stay user pages and
    the task stays at SPL 3 (confinement comes from PKRU, not rings).
    Fresh writable private areas mapped later inherit [app_key].
    Returns PTEs touched. *)

val set_key_range : t -> addr:int -> len:int -> int -> (int, Errno.t) result
(** Assign a protection key to a byte range (extension areas after
    loading, shared buffers).  [Error EINVAL] when the range hits no
    area or the key is out of range. *)

val mprotect :
  t -> addr:int -> len:int -> perms:Vm_area.perms -> (unit, Errno.t) result
(** Whole-area permission change (areas are page-aligned by
    construction). *)

(** {2 Kernel-side byte access (bypasses the CPU, not the mapping)} *)

val poke_bytes : t -> int -> Bytes.t -> unit

val poke_string : t -> int -> string -> unit

val poke_u32 : t -> int -> int -> unit

val peek_u32 : t -> int -> int

val peek_bytes : t -> int -> int -> Bytes.t

val clone : t -> t
(** fork: copy areas and page tables; PPLs are inherited. *)

val pp : t Fmt.t
