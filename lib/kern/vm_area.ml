(* Virtual memory areas (Linux vm_area_struct equivalents).  An area's
   [ppl] is the page privilege its pages receive when they are mapped
   in; Palladium's init_PL / set_range manipulate it. *)

type perms = { pr : bool; pw : bool; px : bool }

let rw = { pr = true; pw = true; px = false }

let ro = { pr = true; pw = false; px = false }

let rx = { pr = true; pw = false; px = true }

type kind =
  | Text
  | Data
  | Bss
  | Heap
  | Stack
  | Mmap_anon
  | Shared_lib
  | Got
  | Plt
  | Ext_code
  | Ext_data
  | Ext_stack
  | Shared_area
  | Gate_stack

type t = {
  mutable va_start : int; (* page aligned *)
  mutable va_end : int; (* exclusive, page aligned *)
  mutable perms : perms;
  mutable ppl : X86.Privilege.page_level;
  mutable key : int; (* protection key its pages receive (MPK backend) *)
  kind : kind;
  label : string;
}

let kind_name = function
  | Text -> "text"
  | Data -> "data"
  | Bss -> "bss"
  | Heap -> "heap"
  | Stack -> "stack"
  | Mmap_anon -> "anon"
  | Shared_lib -> "shlib"
  | Got -> "got"
  | Plt -> "plt"
  | Ext_code -> "ext-code"
  | Ext_data -> "ext-data"
  | Ext_stack -> "ext-stack"
  | Shared_area -> "shared"
  | Gate_stack -> "gate-stack"

let create ?(label = "") ?(key = 0) ~va_start ~va_end ~perms ~ppl kind =
  if va_start land X86.Phys_mem.page_mask <> 0 then
    invalid_arg "Vm_area: unaligned start";
  if va_end land X86.Phys_mem.page_mask <> 0 then
    invalid_arg "Vm_area: unaligned end";
  if va_end <= va_start then invalid_arg "Vm_area: empty area";
  if key < 0 || key >= X86.Paging.key_count then invalid_arg "Vm_area: bad key";
  { va_start; va_end; perms; ppl; key; kind; label }

let contains t addr = addr >= t.va_start && addr < t.va_end

let overlaps t ~va_start ~va_end = va_start < t.va_end && va_end > t.va_start

let pages t = (t.va_end - t.va_start) / X86.Phys_mem.page_size

let allows t (access : X86.Fault.access) =
  match access with
  | X86.Fault.Read -> t.perms.pr
  | X86.Fault.Write -> t.perms.pw
  | X86.Fault.Execute -> t.perms.px

let pp ppf t =
  Fmt.pf ppf "%#x-%#x %s%s%s %a%s %s%s" t.va_start t.va_end
    (if t.perms.pr then "r" else "-")
    (if t.perms.pw then "w" else "-")
    (if t.perms.px then "x" else "-")
    X86.Privilege.pp_page t.ppl
    (if t.key = 0 then "" else Printf.sprintf " key%d" t.key)
    (kind_name t.kind)
    (if t.label = "" then "" else " [" ^ t.label ^ "]")
