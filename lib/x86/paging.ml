(* Two-level page tables.  A directory has 1024 slots, each pointing to
   a page table of 1024 entries; each entry maps one 4-KByte page.  The
   user/supervisor bit of an entry is the paper's PPL: user = PPL 1,
   supervisor = PPL 0.

   PPL marking (the paper's init_PL / set_range / mmap changes) mutates
   the [user] bit of existing entries; the kernel substrate is
   responsible for flushing the TLB afterwards. *)

let entries_per_table = 1024

let vpn_of_linear linear = linear lsr Phys_mem.page_shift

let linear_of_vpn vpn = vpn lsl Phys_mem.page_shift

type pte = {
  mutable pfn : int;
  mutable present : bool;
  mutable writable : bool;
  mutable user : bool; (* true = PPL 1, accessible from ring 3 *)
  mutable accessed : bool;
  mutable dirty : bool;
  mutable key : int; (* 4-bit protection key, checked against PKRU *)
}

type dir = {
  id : int; (* stands in for the physical address loaded into CR3 *)
  tables : pte option array option array; (* 1024 x 1024 *)
  mutable mapped : int;
  mutable generation : int; (* bumped on every structural/PPL mutation *)
}

(* Atomic so directories created by worlds on different domains still
   get unique CR3 stand-ins. *)
let next_id = Atomic.make 0

let create () =
  {
    id = Atomic.fetch_and_add next_id 1 + 1;
    tables = Array.make entries_per_table None;
    mapped = 0;
    generation = 0;
  }

let id t = t.id

let mapped_pages t = t.mapped

let generation t = t.generation

let split_vpn vpn =
  if vpn < 0 || vpn >= entries_per_table * entries_per_table then
    invalid_arg (Printf.sprintf "Paging: vpn %#x out of range" vpn);
  (vpn lsr 10, vpn land 0x3FF)

let lookup t ~vpn =
  let di, ti = split_vpn vpn in
  match t.tables.(di) with
  | None -> None
  | Some table -> (
      match table.(ti) with
      | Some pte when pte.present -> Some pte
      | Some _ | None -> None)

(* [walk_length] is the number of memory references a hardware page
   walk performs (directory entry + table entry); the MMU charges
   cycles per reference on a TLB miss. *)
let walk_length = 2

let key_count = 16

let map ?(key = 0) t ~vpn ~pfn ~writable ~user =
  if key < 0 || key >= key_count then
    invalid_arg (Printf.sprintf "Paging.map: key %d out of range" key);
  let di, ti = split_vpn vpn in
  let table =
    match t.tables.(di) with
    | Some table -> table
    | None ->
        let table = Array.make entries_per_table None in
        t.tables.(di) <- Some table;
        table
  in
  (match table.(ti) with
  | Some pte when pte.present -> ()
  | Some _ | None -> t.mapped <- t.mapped + 1);
  t.generation <- t.generation + 1;
  table.(ti) <-
    Some
      {
        pfn;
        present = true;
        writable;
        user;
        accessed = false;
        dirty = false;
        key;
      }

let unmap t ~vpn =
  let di, ti = split_vpn vpn in
  match t.tables.(di) with
  | None -> None
  | Some table -> (
      match table.(ti) with
      | Some pte when pte.present ->
          table.(ti) <- None;
          t.mapped <- t.mapped - 1;
          t.generation <- t.generation + 1;
          Some pte.pfn
      | Some _ | None -> None)

let set_user t ~vpn user =
  match lookup t ~vpn with
  | None -> false
  | Some pte ->
      pte.user <- user;
      t.generation <- t.generation + 1;
      true

let set_writable t ~vpn writable =
  match lookup t ~vpn with
  | None -> false
  | Some pte ->
      pte.writable <- writable;
      t.generation <- t.generation + 1;
      true

(* Protection-key (re)assignment; callers must flush the TLB, exactly
   as for PPL marking. *)
let set_key t ~vpn key =
  if key < 0 || key >= key_count then
    invalid_arg (Printf.sprintf "Paging.set_key: key %d out of range" key);
  match lookup t ~vpn with
  | None -> false
  | Some pte ->
      pte.key <- key;
      t.generation <- t.generation + 1;
      true

let iter t f =
  Array.iteri
    (fun di slot ->
      match slot with
      | None -> ()
      | Some table ->
          Array.iteri
            (fun ti pte ->
              match pte with
              | Some pte when pte.present -> f ((di lsl 10) lor ti) pte
              | Some _ | None -> ())
            table)
    t.tables

(* Copy all mappings into a fresh directory (fork).  Palladium inherits
   PPLs across fork (section 4.5.2), which falls out of copying the
   [user] bits verbatim. *)
let clone t =
  let fresh = create () in
  iter t (fun vpn pte ->
      map fresh ~key:pte.key ~vpn ~pfn:pte.pfn ~writable:pte.writable
        ~user:pte.user);
  fresh
