(** Two-level page tables; the entry's user/supervisor bit is the
    paper's PPL (user = PPL 1). *)

val vpn_of_linear : int -> int

val linear_of_vpn : int -> int

type pte = {
  mutable pfn : int;
  mutable present : bool;
  mutable writable : bool;
  mutable user : bool;
  mutable accessed : bool;
  mutable dirty : bool;
  mutable key : int;
}

type dir

val create : unit -> dir

val id : dir -> int
(** Stand-in for the physical address loaded into CR3. *)

val mapped_pages : dir -> int

val generation : dir -> int
(** Monotone mutation counter (map/unmap/PPL/writable changes) — lets
    the protection-state auditor skip re-auditing unchanged
    directories.  Direct [pte] field mutation is invisible to it, just
    as stores that bypass the documented interface would be. *)

val lookup : dir -> vpn:int -> pte option

val walk_length : int
(** Memory references of a hardware page walk (charged on TLB miss). *)

val key_count : int
(** Number of protection keys (4-bit field: 16). *)

val map :
  ?key:int -> dir -> vpn:int -> pfn:int -> writable:bool -> user:bool -> unit
(** [key] defaults to 0, the key whose accesses no PKRU value built by
    the backends ever denies. *)

val unmap : dir -> vpn:int -> int option
(** Returns the frame that was mapped, if any. *)

val set_user : dir -> vpn:int -> bool -> bool
(** PPL marking; returns false when the page is not mapped.  Callers
    must flush the TLB. *)

val set_writable : dir -> vpn:int -> bool -> bool

val set_key : dir -> vpn:int -> int -> bool
(** Protection-key assignment; returns false when the page is not
    mapped.  Callers must flush the TLB. *)

val iter : dir -> (int -> pte -> unit) -> unit

val clone : dir -> dir
(** Copy all mappings (fork); PPL bits are inherited verbatim. *)
