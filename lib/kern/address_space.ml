(* Per-process address spaces: the user half (0-3 GByte) of the Linux
   layout, demand paged, with the Palladium PPL policy:

   - before promotion (init_PL) every page is a user page (PPL 1);
   - after promotion, writable pages of the application itself are
     supervisor (PPL 0) so SPL 3 extensions cannot touch them, while
     extension areas, explicitly shared areas and read-only pages stay
     at PPL 1.

   Kernel mappings (3-4 GByte, supervisor) are installed directly into
   the page directory by the kernel; they are not described by areas
   here. *)

module P = X86.Privilege

type t = {
  phys : X86.Phys_mem.t;
  dir : X86.Paging.dir;
  mutable areas : Vm_area.t list; (* sorted by va_start *)
  mutable spl2 : bool;
  mutable mpk_app_key : int; (* 0 = no MPK promotion (see mpk_promote) *)
}

let create ~phys ~dir =
  { phys; dir; areas = []; spl2 = false; mpk_app_key = 0 }

let directory t = t.dir

let areas t = t.areas

let is_promoted t = t.spl2

let is_mpk t = t.mpk_app_key <> 0

let find_area t addr = List.find_opt (fun a -> Vm_area.contains a addr) t.areas

let page_size = X86.Phys_mem.page_size

let check_user_range ~va_start ~va_end =
  if va_start < 0 || va_end > X86.Layout.user_limit + 1 || va_end <= va_start
  then invalid_arg "Address_space: range outside user space"

let insert_sorted t area =
  let rec ins = function
    | [] -> [ area ]
    | a :: rest ->
        if area.Vm_area.va_start < a.Vm_area.va_start then area :: a :: rest
        else a :: ins rest
  in
  t.areas <- ins t.areas

exception Overlap

let add_area t area =
  List.iter
    (fun a ->
      if
        Vm_area.overlaps a ~va_start:area.Vm_area.va_start
          ~va_end:area.Vm_area.va_end
      then raise Overlap)
    t.areas;
  insert_sorted t area

(* The PPL a fresh area receives under the current promotion state.
   The GOT stays at PPL 1 — extensions must read it to jump through
   the PLT — and is write-protected after eager binding instead
   (section 4.4.2). *)
let default_ppl t ~(perms : Vm_area.perms) ~(kind : Vm_area.kind) =
  match kind with
  | Vm_area.Ext_code | Vm_area.Ext_data | Vm_area.Ext_stack
  | Vm_area.Shared_area | Vm_area.Got | Vm_area.Plt ->
      P.User
  | Vm_area.Text | Vm_area.Data | Vm_area.Bss | Vm_area.Heap | Vm_area.Stack
  | Vm_area.Mmap_anon | Vm_area.Shared_lib | Vm_area.Gate_stack ->
      if t.spl2 && perms.Vm_area.pw then P.Supervisor else P.User

(* The protection key a fresh area receives under the current MPK
   promotion state: the application key for the app's own writable
   private areas (the same set promote would mark supervisor), 0 for
   everything else.  Extension areas receive their key explicitly
   through [set_key_range] after loading. *)
let default_key t ~(perms : Vm_area.perms) ~(kind : Vm_area.kind) =
  match kind with
  | Vm_area.Ext_code | Vm_area.Ext_data | Vm_area.Ext_stack
  | Vm_area.Shared_area | Vm_area.Got | Vm_area.Plt ->
      0
  | Vm_area.Text | Vm_area.Data | Vm_area.Bss | Vm_area.Heap | Vm_area.Stack
  | Vm_area.Mmap_anon | Vm_area.Shared_lib | Vm_area.Gate_stack ->
      if perms.Vm_area.pw then t.mpk_app_key else 0

let map_area t ?label ~va_start ~len ~perms kind =
  let va_end = X86.Layout.page_align_up (va_start + len) in
  let va_start = X86.Layout.page_align_down va_start in
  check_user_range ~va_start ~va_end;
  let ppl = default_ppl t ~perms ~kind in
  let key = default_key t ~perms ~kind in
  let area = Vm_area.create ?label ~key ~va_start ~va_end ~perms ~ppl kind in
  add_area t area;
  area

(* First-fit search for a free region, scanning upwards from [hint]. *)
let find_free t ~len ~hint =
  let len = X86.Layout.page_align_up len in
  let hint = X86.Layout.page_align_down hint in
  let rec scan candidate = function
    | [] ->
        if candidate + len <= X86.Layout.user_limit + 1 then candidate
        else invalid_arg "Address_space.find_free: out of address space"
    | a :: rest ->
        if a.Vm_area.va_end <= candidate then scan candidate rest
        else if candidate + len <= a.Vm_area.va_start then candidate
        else scan (max candidate a.Vm_area.va_end) rest
  in
  scan hint t.areas

let mmap t ?addr ?label ~len ~perms kind =
  let va_start =
    match addr with
    | Some a -> X86.Layout.page_align_down a
    | None -> find_free t ~len ~hint:X86.Layout.shared_lib_base
  in
  map_area t ?label ~va_start ~len ~perms kind

let munmap t ~addr ~len =
  let va_start = X86.Layout.page_align_down addr in
  let va_end = X86.Layout.page_align_up (addr + len) in
  let keep, drop =
    List.partition
      (fun a -> not (Vm_area.overlaps a ~va_start ~va_end))
      t.areas
  in
  t.areas <- keep;
  List.iter
    (fun (a : Vm_area.t) ->
      let vpn0 = a.Vm_area.va_start / page_size in
      for i = 0 to Vm_area.pages a - 1 do
        match X86.Paging.unmap t.dir ~vpn:(vpn0 + i) with
        | Some pfn -> X86.Phys_mem.free_frame t.phys pfn
        | None -> ()
      done)
    drop;
  List.length drop

(* Map one page of an area (demand paging).  Returns the new frame.
   The area's protection key rides along so demand-paged frames carry
   the same key as eagerly populated ones. *)
let map_page t (area : Vm_area.t) ~vpn =
  let pfn = X86.Phys_mem.alloc_frame t.phys in
  X86.Paging.map t.dir ~vpn ~pfn ~writable:area.Vm_area.perms.Vm_area.pw
    ~user:(area.Vm_area.ppl = P.User) ~key:area.Vm_area.key;
  pfn

(* Demand-fault service: returns [true] when the faulting page was
   validly missing and is now mapped. *)
let demand_map t ~addr ~(access : X86.Fault.access) =
  match find_area t addr with
  | None -> false
  | Some area ->
      if not (Vm_area.allows area access) then false
      else begin
        let vpn = addr / page_size in
        (match X86.Paging.lookup t.dir ~vpn with
        | Some _ -> () (* present but failed checks: not our case *)
        | None -> ignore (map_page t area ~vpn));
        true
      end

(* Eagerly populate every page of an area. *)
let populate t (area : Vm_area.t) =
  let vpn0 = area.Vm_area.va_start / page_size in
  for i = 0 to Vm_area.pages area - 1 do
    match X86.Paging.lookup t.dir ~vpn:(vpn0 + i) with
    | Some _ -> ()
    | None -> ignore (map_page t area ~vpn:(vpn0 + i))
  done

(* --- PPL marking --------------------------------------------------- *)

(* Re-stamp the PPL of every mapped page of [area]; unmapped pages get
   the new PPL when they fault in (this is the paper's "actual marking
   is performed at the page fault time" for mmap).  Returns the number
   of page-table entries touched for cycle accounting. *)
let apply_ppl t (area : Vm_area.t) level =
  area.Vm_area.ppl <- level;
  let vpn0 = area.Vm_area.va_start / page_size in
  let touched = ref 0 in
  for i = 0 to Vm_area.pages area - 1 do
    if X86.Paging.set_user t.dir ~vpn:(vpn0 + i) (level = P.User) then
      incr touched
  done;
  !touched

(* init_PL's memory side: mark all writable non-extension pages
   supervisor.  Returns pages touched. *)
let promote t =
  t.spl2 <- true;
  List.fold_left
    (fun acc (a : Vm_area.t) ->
      let keep_user =
        match a.Vm_area.kind with
        | Vm_area.Ext_code | Vm_area.Ext_data | Vm_area.Ext_stack
        | Vm_area.Shared_area | Vm_area.Got | Vm_area.Plt ->
            true
        | Vm_area.Text | Vm_area.Data | Vm_area.Bss | Vm_area.Heap
        | Vm_area.Stack | Vm_area.Mmap_anon | Vm_area.Shared_lib
        | Vm_area.Gate_stack ->
            not a.Vm_area.perms.Vm_area.pw
      in
      if keep_user then acc else acc + apply_ppl t a P.Supervisor)
    0 t.areas

(* --- protection-key marking (MPK backend) -------------------------- *)

(* Re-stamp the key of every mapped page of [area]; unmapped pages get
   the new key when they fault in ([map_page] reads [area.key]).
   Returns page-table entries touched for cycle accounting. *)
let apply_key t (area : Vm_area.t) key =
  if key < 0 || key >= X86.Paging.key_count then
    invalid_arg "Address_space.apply_key: bad key";
  area.Vm_area.key <- key;
  let vpn0 = area.Vm_area.va_start / page_size in
  let touched = ref 0 in
  for i = 0 to Vm_area.pages area - 1 do
    if X86.Paging.set_key t.dir ~vpn:(vpn0 + i) key then incr touched
  done;
  !touched

(* init_mpk's memory side: the MPK analogue of [promote].  Stamps the
   application key on all writable non-extension areas — the same set
   promote marks supervisor — but leaves every page a user page and
   the task at SPL 3: confinement comes from the PKRU value the
   entry/exit stubs write, not from rings.  Returns pages touched. *)
let mpk_promote t ~app_key =
  if app_key <= 0 || app_key >= X86.Paging.key_count then
    invalid_arg "Address_space.mpk_promote: bad key";
  t.mpk_app_key <- app_key;
  List.fold_left
    (fun acc (a : Vm_area.t) ->
      let keyed = default_key t ~perms:a.Vm_area.perms ~kind:a.Vm_area.kind in
      if keyed = 0 then acc else acc + apply_key t a keyed)
    0 t.areas

(* set_key: assign [key] to a byte range, e.g. extension areas after
   loading (extension key) or shared buffers (key 0 = expose).  The
   range must fall entirely inside existing areas. *)
let set_key_range t ~addr ~len key =
  if key < 0 || key >= X86.Paging.key_count then Error Errno.EINVAL
  else begin
    let va_start = X86.Layout.page_align_down addr in
    let va_end = X86.Layout.page_align_up (addr + len) in
    let affected =
      List.filter (fun a -> Vm_area.overlaps a ~va_start ~va_end) t.areas
    in
    match affected with
    | [] -> Error Errno.EINVAL
    | areas ->
        let touched =
          List.fold_left (fun acc a -> acc + apply_key t a key) 0 areas
        in
        Ok touched
  end

(* set_range: expose pages to extensions (PPL 1) or hide them (PPL 0).
   The range must fall entirely inside existing areas. *)
let set_range t ~addr ~len level =
  let va_start = X86.Layout.page_align_down addr in
  let va_end = X86.Layout.page_align_up (addr + len) in
  let affected =
    List.filter (fun a -> Vm_area.overlaps a ~va_start ~va_end) t.areas
  in
  match affected with
  | [] -> Error Errno.EINVAL
  | areas ->
      let touched =
        List.fold_left (fun acc a -> acc + apply_ppl t a level) 0 areas
      in
      Ok touched

let mprotect t ~addr ~len ~perms =
  let va_start = X86.Layout.page_align_down addr in
  let va_end = X86.Layout.page_align_up (addr + len) in
  match
    List.find_opt
      (fun a -> a.Vm_area.va_start <= va_start && a.Vm_area.va_end >= va_end)
      t.areas
  with
  | None -> Error Errno.EINVAL
  | Some area ->
      (* Simplification: mprotect applies to whole areas.  Benchmarks
         and examples create page-aligned areas, so splitting is not
         needed. *)
      area.Vm_area.perms <- perms;
      let vpn0 = area.Vm_area.va_start / page_size in
      for i = 0 to Vm_area.pages area - 1 do
        ignore (X86.Paging.set_writable t.dir ~vpn:(vpn0 + i) perms.Vm_area.pw)
      done;
      Ok ()

(* --- Kernel-side byte access (bypasses the CPU, not the mapping) --- *)

let phys_of t addr =
  let vpn = addr / page_size in
  match X86.Paging.lookup t.dir ~vpn with
  | Some pte ->
      X86.Paging.linear_of_vpn pte.X86.Paging.pfn
      lor (addr land X86.Phys_mem.page_mask)
  | None -> (
      match find_area t addr with
      | Some area ->
          let pfn = map_page t area ~vpn in
          X86.Paging.linear_of_vpn pfn lor (addr land X86.Phys_mem.page_mask)
      | None -> invalid_arg (Printf.sprintf "Address_space.phys_of: %#x unmapped" addr))

let poke_bytes t addr bytes =
  Bytes.iteri
    (fun i c -> X86.Phys_mem.write_u8 t.phys (phys_of t (addr + i)) (Char.code c))
    bytes

let poke_string t addr s = poke_bytes t addr (Bytes.of_string s)

let poke_u32 t addr v = X86.Phys_mem.write_u32 t.phys (phys_of t addr) v

let peek_u32 t addr = X86.Phys_mem.read_u32 t.phys (phys_of t addr)

let peek_bytes t addr len =
  Bytes.init len (fun i ->
      Char.chr (X86.Phys_mem.read_u8 t.phys (phys_of t (addr + i))))

(* fork: clone areas and page tables; Palladium PPLs are inherited. *)
let clone t =
  let dir = X86.Paging.clone t.dir in
  {
    phys = t.phys;
    dir;
    areas =
      List.map
        (fun (a : Vm_area.t) ->
          Vm_area.create ~label:a.Vm_area.label ~key:a.Vm_area.key
            ~va_start:a.Vm_area.va_start ~va_end:a.Vm_area.va_end
            ~perms:a.Vm_area.perms ~ppl:a.Vm_area.ppl a.Vm_area.kind)
        t.areas;
    spl2 = t.spl2;
    mpk_app_key = t.mpk_app_key;
  }

let pp ppf t =
  Fmt.pf ppf "@[<v>address space (%s):"
    (if t.spl2 then "SPL2-promoted" else "SPL3");
  List.iter (fun a -> Fmt.pf ppf "@,  %a" Vm_area.pp a) t.areas;
  Fmt.pf ppf "@]"
