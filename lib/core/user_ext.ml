(* The user-level extension mechanism (section 4.4): the one extension
   host.  An application loads extensions into areas of its own address
   space, each with its own stack and heap, and calls their functions
   through generated entry stubs.  Only the compartment boundary has
   two cases, and only promotion, range grant/revoke, load-time
   marking, the entry stub and the PKRU reset of an aborted call
   branch on it:

   - Segmentation, the paper's mechanism: init_PL promotes the
     application to SPL 2 (writable pages PPL 0), extensions run in
     SPL 3 segments over the same 0-3 GByte range, and a call is a
     Prepare/Transfer pair with the AppCallGate return path.
   - Keys, the MPK-style re-expression of its paging half: the
     application stays at ring 3 and init_mpk gives its writable pages
     the application key, extension pages the extension key.  A call is
     one stub that switches stacks and writes PKRU twice; no gate, no
     ring change.  wrpkru is unprivileged on the hardware, so its
     confinement rests on Verify's allowed_wrpkru lint and the
     auditor's INV-23 placement check. *)

module Sel = X86.Selector

type kind = Segmentation | Mpk

let app_key = 1

let ext_key = 2

type extension = {
  x_name : string;
  x_handle : Dyld.handle;
  x_arg_slot : int; (* = initial extension ESP; top stack slot *)
  x_heap_end : int;
  mutable x_heap_cursor : int;
  mutable x_functions : (string * int) list; (* function -> entry stub *)
}

type call_error =
  | Protection_fault of X86.Fault.t
  | Time_limit_exceeded of Watchdog.expiry
  | Runaway (* exceeded the simulator's instruction fuel *)

type boundary =
  | Seg of {
      mutable appgate_sel : int;
      mutable services : (string * int) list; (* service -> gate selector *)
    }
  | Keys of { ext_pkru : int (* rights while an extension runs *) }

type t = {
  kernel : Kernel.t;
  task : Task.t;
  env : Dyld.env;
  rt : Runtime.t;
  sp2_slot : int;
  bp2_slot : int;
  stub_base : int;
  stub_end : int;
  mutable stub_cursor : int;
  boundary : boundary;
  mutable extensions : extension list;
  mutable time_limit : int;
  mutable calls : int; (* statistics *)
}

let page_size = X86.Phys_mem.page_size

let task t = t.task

let runtime t = t.rt

let env t = t.env

let kernel t = t.kernel

let backend_of t = match t.boundary with Seg _ -> Segmentation | Keys _ -> Mpk

let services t = match t.boundary with Seg g -> g.services | Keys _ -> []

let set_time_limit t cycles = t.time_limit <- cycles

let calls t = t.calls

(* Append assembled code to the application's stub region. *)
let emit_stubs t program =
  let asm = Asm.assemble ~org:t.stub_cursor program in
  if t.stub_cursor + asm.Asm.text_size > t.stub_end then
    invalid_arg "User_ext: stub region exhausted";
  Code_mem.store_program (Kernel.code t.kernel) ~addr:t.stub_cursor
    asm.Asm.instrs;
  t.stub_cursor <- t.stub_cursor + asm.Asm.text_size;
  asm

(* Segmentation: install AppCallGate at the start of the stub region,
   init_PL (promotion to SPL 2), then register the gate behind a DPL 3
   call gate.  Keys: init_mpk gives every writable private page the
   application key, but the task stays an ordinary ring 3 process; the
   stub region is the only sanctioned home of wrpkru. *)
let promote t ~name =
  let context =
    match t.boundary with
    | Seg g ->
        ignore
          (emit_stubs t
             (Stub_gen.app_call_gate ~label:"appgate" ~mark_prefix:"app"
                ~sp2_slot:t.sp2_slot ~bp2_slot:t.bp2_slot ()));
        ignore
          (Runtime.syscall_exn t.rt ~number:Syscall.sys_init_pl ~name:"init_PL");
        g.appgate_sel <-
          Runtime.syscall_exn t.rt ~number:Syscall.sys_set_call_gate
            ~a1:t.stub_base ~name:"set_call_gate";
        "promote "
    | Keys k ->
        ignore
          (Runtime.syscall_exn t.rt ~number:Syscall.sys_init_mpk ~a1:app_key
             ~name:"init_mpk");
        Paudit.register_mpk_domain t.kernel ~pid:t.task.Task.pid ~name
          ~stub_base:t.stub_base ~stub_end:t.stub_end ~app_key ~ext_key
          ~rights:[ 0; k.ext_pkru ];
        "mpk promote "
  in
  Paudit.maybe_audit ~context:(context ^ name) t.kernel

(* Create an extensible application: sets up the Palladium runtime,
   data and stub regions and promotes the process behind [backend]'s
   boundary. *)
let create ?(backend = Segmentation) kernel ~name =
  let task = Kernel.create_task kernel ~name in
  let env = Dyld.create_env () in
  let rt = Runtime.install kernel task in
  (* Saved stack/base pointer slots: live in application data, so they
     are PPL 0 (or carry the application key) after promotion —
     extensions cannot corrupt them. *)
  let data_area =
    Address_space.mmap task.Task.asp ~len:page_size ~perms:Vm_area.rw
      ~label:"palladium.data" Vm_area.Data
  in
  Address_space.populate task.Task.asp data_area;
  (* Stub region: read-only executable, hence PPL 1 (key 0) — both
     sides can execute the stubs, neither can modify them. *)
  let stub_area =
    Address_space.mmap task.Task.asp
      ~len:(Pconfig.stub_region_pages * page_size)
      ~perms:Vm_area.rx ~label:"palladium.stubs" Vm_area.Text
  in
  Address_space.populate task.Task.asp stub_area;
  let boundary =
    match backend with
    | Segmentation -> Seg { appgate_sel = 0; services = [] }
    | Mpk -> Keys { ext_pkru = X86.Mmu.key_ad app_key }
  in
  let t =
    {
      kernel;
      task;
      env;
      rt;
      sp2_slot = data_area.Vm_area.va_start;
      bp2_slot = data_area.Vm_area.va_start + 4;
      stub_base = stub_area.Vm_area.va_start;
      stub_end = stub_area.Vm_area.va_end;
      stub_cursor = stub_area.Vm_area.va_start;
      boundary;
      extensions = [];
      time_limit = Pconfig.default_time_limit_cycles;
      calls = 0;
    }
  in
  promote t ~name;
  t

(* Grant a range to extensions (PPL 1, or key 0: accessible under any
   PKRU), or revoke it again (PPL 0, or the application key). *)
let set_range t ~addr ~len ~exposed =
  match t.boundary with
  | Seg _ ->
      ignore
        (Runtime.syscall_exn t.rt ~number:Syscall.sys_set_range ~a1:addr
           ~a2:len ~a3:(if exposed then 1 else 0) ~name:"set_range")
  | Keys _ ->
      ignore
        (Runtime.syscall_exn t.rt ~number:Syscall.sys_set_key ~a1:addr ~a2:len
           ~a3:(if exposed then 0 else app_key) ~name:"set_key")

let expose_range t ~addr ~len = set_range t ~addr ~len ~exposed:true

let hide_range t ~addr ~len = set_range t ~addr ~len ~exposed:false

(* Load-time marking of a new extension's areas.  Segmentation charges
   the PPL marking of the exposed pages (section 5.1).  Keys stamps
   every area with the extension key through set_key, which charges
   the same per-page cost, and audits the new key layout. *)
let mark_extension t ~name areas =
  match t.boundary with
  | Seg _ ->
      let pages = List.fold_left (fun acc a -> acc + Vm_area.pages a) 0 areas in
      Cpu.charge (Kernel.cpu t.kernel)
        (Kcosts.ppl_mark_startup + (Kcosts.ppl_mark_per_page * pages))
  | Keys _ ->
      List.iter
        (fun (a : Vm_area.t) ->
          ignore
            (Runtime.syscall_exn t.rt ~number:Syscall.sys_set_key
               ~a1:a.Vm_area.va_start
               ~a2:(a.Vm_area.va_end - a.Vm_area.va_start)
               ~a3:ext_key ~name:"set_key"))
        areas;
      Paudit.maybe_audit ~context:("mpk_dlopen " ^ name) t.kernel

(* seg_dlopen: load an extension image into an extension segment (same
   base/range as the application) with its own stack and heap, and mark
   its pages for the boundary. *)
let seg_dlopen t image =
  let handle =
    Dyld.dlopen ~placement:Dyld.extension_segment ~kernel:t.kernel
      ~task:t.task ~env:t.env image
  in
  let asp = t.task.Task.asp in
  let stack_area =
    Address_space.mmap asp
      ~len:(Pconfig.ext_stack_pages * page_size)
      ~perms:Vm_area.rw
      ~label:(image.Image.name ^ ".stack")
      Vm_area.Ext_stack
  in
  Address_space.populate asp stack_area;
  let heap_area =
    Address_space.mmap asp ~len:(16 * page_size) ~perms:Vm_area.rw
      ~label:(image.Image.name ^ ".heap")
      Vm_area.Ext_data
  in
  Address_space.populate asp heap_area;
  mark_extension t ~name:image.Image.name
    (stack_area :: heap_area :: handle.Dyld.h_areas);
  let ext =
    {
      x_name = image.Image.name;
      x_handle = handle;
      x_arg_slot = stack_area.Vm_area.va_end - 4;
      x_heap_end = heap_area.Vm_area.va_end;
      x_heap_cursor = heap_area.Vm_area.va_start;
      x_functions = [];
    }
  in
  t.extensions <- ext :: t.extensions;
  ext

(* The entry stub for one extension function, and its entry label:
   Prepare/Transfer over a phantom activation record, or the wrpkru
   stub. *)
let entry_stub t ext ~fn_name ~fn_addr =
  let fn_name = ext.x_name ^ "$" ^ fn_name in
  match t.boundary with
  | Seg g ->
      let ext_cs =
        match t.task.Task.ext_cs with
        | Some s -> Sel.encode s
        | None -> invalid_arg "User_ext: application not promoted"
      in
      let spec =
        {
          Stub_gen.fn_name;
          fn_addr;
          ext_cs;
          ext_ss = Sel.encode (Kernel.user_data_selector t.kernel);
          ext_stack_ptr = ext.x_arg_slot;
          sp2_slot = t.sp2_slot;
          bp2_slot = t.bp2_slot;
          return_gate = g.appgate_sel;
        }
      in
      (Stub_gen.prepare_transfer spec, Stub_gen.prepare_label spec)
  | Keys k ->
      let spec =
        {
          Stub_gen.mk_fn_name = fn_name;
          mk_fn_addr = fn_addr;
          mk_ext_stack_ptr = ext.x_arg_slot;
          mk_sp2_slot = t.sp2_slot;
          mk_bp2_slot = t.bp2_slot;
          mk_ext_pkru = k.ext_pkru;
        }
      in
      (Stub_gen.mpk_prepare spec, Stub_gen.mpk_prepare_label spec)

(* seg_dlsym: resolve an extension *function* and return a pointer to
   a freshly generated entry stub for it.  Data symbols must be
   resolved with plain dlsym (paper section 4.4.2). *)
let seg_dlsym t ext fn_name =
  match List.assoc_opt fn_name ext.x_functions with
  | Some prepare -> prepare
  | None ->
      let fn_addr = Dyld.dlsym ext.x_handle fn_name in
      let program, label = entry_stub t ext ~fn_name ~fn_addr in
      let prepare = Asm.symbol (emit_stubs t program) label in
      ext.x_functions <- (fn_name, prepare) :: ext.x_functions;
      prepare

let dlsym_data ext name = Dyld.dlsym ext.x_handle name

(* xmalloc: allocate from the extension's heap, which the extension
   may write (PPL 1, or the extension key). *)
let xmalloc ext size =
  let aligned = (size + 3) land lnot 3 in
  if ext.x_heap_cursor + aligned > ext.x_heap_end then
    invalid_arg "User_ext.xmalloc: extension heap exhausted";
  let addr = ext.x_heap_cursor in
  ext.x_heap_cursor <- ext.x_heap_cursor + aligned;
  addr

let c_protected_calls = Obs.Counters.counter "core.protected_calls"

(* Recover the Table 1 phases of one protected call from the [Mark]
   stamps the entry stubs leave behind, and record them as child spans
   of the (still open) protected_call root.  The two transfer phases
   are named after the boundary's instructions:

                 segmentation  keys
     Prepare     Prepare       Prepare     .setup  -> .call
     lowering    lret          wrpkru.in   .call   -> .body
     ext.body    ext.body      ext.body    .body   -> .return
     raising     lcall         wrpkru.out  .return -> .restore
     ret         ret           ret         .restore-> rt.done  *)
let record_phase_spans t marks =
  let find suffix =
    List.find_map
      (fun (n, c) -> if Filename.check_suffix n suffix then Some c else None)
      marks
  in
  let phase name a b =
    match (a, b) with
    | Some x, Some y when y >= x -> ignore (Obs.Span.record name ~start:x ~stop:y)
    | _ -> ()
  in
  let lowering, raising =
    match t.boundary with
    | Seg _ -> ("lret", "lcall")
    | Keys _ -> ("wrpkru.in", "wrpkru.out")
  in
  let setup = find ".setup" in
  let call = find ".call" in
  let body = find ".body" in
  let return = find ".return" in
  let restore = find ".restore" in
  let done_ = find "rt.done" in
  phase "Prepare" setup call;
  phase lowering call body;
  phase "ext.body" body return;
  phase raising return restore;
  phase "ret" restore done_

let result_of o =
  match o.Runtime.result with
  | Kernel.Completed -> Ok (o.Runtime.value, o.Runtime.cycles)
  | Kernel.Faulted f -> Error (Protection_fault f)
  | Kernel.Timed_out e -> Error (Time_limit_exceeded e)
  | Kernel.Out_of_fuel -> Error Runaway

(* Protected extension call: arm the watchdog, enter user mode at the
   entry stub, and interpret the outcome. *)
let call t ~prepare ~arg =
  t.calls <- t.calls + 1;
  Obs.Counters.incr c_protected_calls;
  let wd = Kernel.watchdog t.kernel in
  let cpu = Kernel.cpu t.kernel in
  let span_on = Obs.Span.on () in
  let marks_before = Cpu.mark_cursor cpu in
  if span_on then
    Obs.Span.begin_ "protected_call"
      ~args:[ ("prepare", Printf.sprintf "%#x" prepare) ]
      ~at:(Cpu.cycles cpu);
  Watchdog.arm wd ~now:(Cpu.cycles cpu) ~limit:t.time_limit ();
  Cpu.reset_tick cpu (* a fresh invocation starts a fresh timer period *);
  let o = Runtime.invoke1 t.rt ~fn:prepare ~arg in
  Watchdog.disarm wd;
  (* An aborted call never reaches the keys stub's closing wrpkru,
     which would leave the thread stuck at extension rights.  A real
     kernel restores PKRU from the interrupted thread's saved context
     when it delivers the signal; mirror that here so the application
     keeps its own rights after containment. *)
  (match (t.boundary, o.Runtime.result) with
  | Keys _, (Kernel.Faulted _ | Kernel.Timed_out _ | Kernel.Out_of_fuel) ->
      X86.Mmu.set_pkru (Cpu.mmu cpu) 0
  | Keys _, Kernel.Completed | Seg _, _ -> ());
  if span_on then begin
    record_phase_spans t (Cpu.marks_since cpu marks_before);
    Obs.Span.end_ "protected_call" ~at:(Cpu.cycles cpu)
      ~args:
        [
          ( "outcome",
            match o.Runtime.result with
            | Kernel.Completed -> "ok"
            | Kernel.Faulted _ -> "fault"
            | Kernel.Timed_out _ -> "timeout"
            | Kernel.Out_of_fuel -> "runaway" );
          ("cycles", string_of_int o.Runtime.cycles);
        ]
  end;
  (match o.Runtime.result with
  | Kernel.Timed_out _ ->
      ignore
        (Signal.deliver t.task.Task.signals
           {
             Signal.signal = Signal.SIGALRM;
             fault_addr = None;
             reason = "extension exceeded its CPU time limit";
           })
  | Kernel.Completed | Kernel.Faulted _ | Kernel.Out_of_fuel -> ());
  result_of o

(* Unprotected local call to a function in the same protection domain
   (the Table 2 baseline). *)
let call_unprotected t ~fn ~arg = result_of (Runtime.invoke1 t.rt ~fn ~arg)

(* Expose an application service to extensions: the service body runs
   at SPL 2, reached through a DPL 3 call gate; [handler] receives the
   address of the arguments the extension pushed on its own stack.
   The keys boundary has no SPL 2 for the body to run at. *)
let add_service t ~name ~(handler : args_base:int -> int) =
  match t.boundary with
  | Keys _ ->
      invalid_arg "User_ext.add_service: services need the segmentation boundary"
  | Seg g ->
      let kcall_name = Printf.sprintf "asvc$%d$%s" t.task.Task.pid name in
      let cpu = Kernel.cpu t.kernel in
      Cpu.register_handler cpu kcall_name (fun cpu ->
          let args_base = Cpu.get_reg cpu Reg.EBX in
          Cpu.set_reg cpu Reg.EAX (handler ~args_base));
      let label = "svc$" ^ name in
      let asm = emit_stubs t (Stub_gen.app_service ~label ~kcall_name) in
      let entry = Asm.symbol asm label in
      let sel =
        Runtime.syscall_exn t.rt ~number:Syscall.sys_set_call_gate ~a1:entry
          ~name:"set_call_gate"
      in
      g.services <- (name, sel) :: g.services;
      sel

(* Helpers for service handlers to read extension-stack arguments. *)
let peek_u32 t addr = Address_space.peek_u32 t.task.Task.asp addr

let peek_bytes t addr len = Address_space.peek_bytes t.task.Task.asp addr len

let poke_bytes t addr bytes = Address_space.poke_bytes t.task.Task.asp addr bytes

let poke_u32 t addr v = Address_space.poke_u32 t.task.Task.asp addr v

let pp_call_error ppf = function
  | Protection_fault f -> Fmt.pf ppf "protection fault: %a" X86.Fault.pp f
  | Time_limit_exceeded e ->
      Fmt.pf ppf "time limit exceeded (%d > %d cycles)" e.Watchdog.wd_used
        e.Watchdog.wd_limit
  | Runaway -> Fmt.string ppf "runaway extension (instruction fuel exhausted)"
