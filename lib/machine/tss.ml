(* Task State Segment.  Holds the per-ring stack pointers used by
   inter-privilege control transfers (there is no ring-3 slot: x86
   never transfers *into* ring 3 through a gate — which is exactly the
   mismatch Palladium's lret trick works around) and the page table
   loaded into CR3 on a task switch. *)

type stack = { stack_selector : X86.Selector.t; stack_pointer : int }

type t = {
  tss_id : int;
  mutable sp0 : stack option;
  mutable sp1 : stack option;
  mutable sp2 : stack option;
  mutable dir : X86.Paging.dir;
  mutable ldt : X86.Desc_table.t option;
}

(* Atomic so TSSes created by worlds on different domains still get
   unique ids (they key fault diagnostics). *)
let next_id = Atomic.make 0

let create ~dir ?ldt () =
  let tss_id = Atomic.fetch_and_add next_id 1 + 1 in
  { tss_id; sp0 = None; sp1 = None; sp2 = None; dir; ldt }

let id t = t.tss_id

let set_stack t ring stack =
  match ring with
  | X86.Privilege.R0 -> t.sp0 <- Some stack
  | X86.Privilege.R1 -> t.sp1 <- Some stack
  | X86.Privilege.R2 -> t.sp2 <- Some stack
  | X86.Privilege.R3 ->
      invalid_arg "Tss.set_stack: the TSS has no ring-3 stack slot"

let clear_stack t ring =
  match ring with
  | X86.Privilege.R0 -> t.sp0 <- None
  | X86.Privilege.R1 -> t.sp1 <- None
  | X86.Privilege.R2 -> t.sp2 <- None
  | X86.Privilege.R3 ->
      invalid_arg "Tss.clear_stack: the TSS has no ring-3 stack slot"

let stack_slot t ring =
  match ring with
  | X86.Privilege.R0 -> t.sp0
  | X86.Privilege.R1 -> t.sp1
  | X86.Privilege.R2 -> t.sp2
  | X86.Privilege.R3 -> None

let stack_for t ring =
  let slot = stack_slot t ring in
  match slot with
  | Some s -> s
  | None ->
      X86.Fault.raise_
        (X86.Fault.Invalid_transfer
           {
             reason =
               Printf.sprintf "TSS#%d has no stack for ring %d" t.tss_id
                 (X86.Privilege.to_int ring);
           })

let directory t = t.dir

let set_directory t dir = t.dir <- dir

let ldt t = t.ldt
