(** Classic (unprotected) loadable kernel modules — stock Linux insmod
    semantics: the module becomes part of the kernel at SPL 0 with full
    access to kernel memory.  This is the baseline Palladium's
    kernel-extension mechanism improves on, and the path the Figure 7
    BPF interpreter runs through. *)

type t

val kernel : t -> Kernel.t
(** The kernel this module was loaded into. *)

val insmod : Kernel.t -> Image.t -> t
(** Load an image into kernel memory proper (addresses are
    kernel-segment offsets). *)

val symbol : t -> string -> int
(** Kernel-segment offset of a module symbol; raises
    {!Asm.Unresolved}. *)

val invoke :
  t -> Task.t -> fn:string -> arg:int -> Kernel.run_result * int * int
(** Call a module function directly at CPL 0 (no protection boundary);
    returns (outcome, EAX, cycles). *)

val poke : t -> symbol:string -> off:int -> Bytes.t -> unit

val poke_u32 : t -> symbol:string -> off:int -> int -> unit

val peek_u32 : t -> symbol:string -> off:int -> int
