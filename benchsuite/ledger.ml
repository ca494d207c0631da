(* Layer ledger: fixed-iteration microbenchmarks of single public
   calls of the lower layers, on small worlds of their own with fixed
   inputs.  Every traced run executes the same ledger, so these numbers
   do not depend on the workload; a change to one layer shows up here
   before it shows up end to end.  Host times are medians over batches
   or single calls.  The per-layer metrics tied to one workload come
   from that workload's own spans instead (see [Workloads]). *)

let now = Tracer.now_ns

let ns_since t0 = float_of_int (now () - t0)

(* Median over [batches] of the ns per call of [f] in a batch of
   [per_batch] calls. *)
let batched ~batches ~per_batch f =
  Quantiles.median
    (List.init batches (fun _ ->
         let t0 = now () in
         for _ = 1 to per_batch do
           f ()
         done;
         ns_since t0 /. float_of_int per_batch))

let m = Metric.make

(* verify: the load-time verifier on the images a lifecycle loads. *)
let verify ~scale =
  let programs =
    [
      ("null_fn", Ulib.null_fn_body ~name:"null_fn");
      ("strrev", Ulib.strrev_body ~name:"strrev");
      ("filter", Native_compile.filter_text Workloads.filter_terms);
    ]
  in
  let ns =
    batched ~batches:10 ~per_batch:(10 / scale) (fun () ->
        List.iter
          (fun (entry, p) -> ignore (Verify.verify ~entries:[ entry ] ~name:entry p))
          programs)
  in
  [ m "verify.verify_us" "us" [ ns /. 3. /. 1e3 ] ]

(* audit: a forced audit of a world holding a lifecycle's extensions. *)
let audit ~scale =
  let w, app = Workloads.app_world ~backend:Pbackend.Segmentation ~name:"ledger" in
  List.iter
    (fun (image, fn) -> ignore (Workloads.resolve app image fn))
    [
      (Ulib.null_image, "null_fn");
      (Ulib.strrev_image, "strrev");
      (Native_compile.image Workloads.filter_terms, "filter");
    ];
  let kernel = Palladium.kernel w in
  let ns =
    batched ~batches:(50 / scale) ~per_batch:1 (fun () ->
        ignore (Paudit.force_audit ~context:"ledger" kernel))
  in
  [ m "audit.force_us" "us" [ ns /. 1e3 ] ]

(* x86: a TLB-hit translation and a data-segment load. *)
let x86 ~scale =
  let phys = X86.Phys_mem.create () in
  let dir = X86.Paging.create () in
  let pages = 32 in
  for vpn = 0 to pages - 1 do
    X86.Paging.map dir ~vpn ~pfn:(X86.Phys_mem.alloc_frame phys) ~writable:true
      ~user:true
  done;
  let mmu = X86.Mmu.create phys ~dir in
  let page = ref 0 in
  let translate =
    batched ~batches:20 ~per_batch:(50_000 / scale) (fun () ->
        page := (!page + 1) land (pages - 1);
        ignore
          (X86.Mmu.translate mmu ~cpl:X86.Privilege.R3 ~access:X86.Fault.Read
             ((!page * 4096) + 8)))
  in
  let gdt = X86.Desc_table.gdt () in
  X86.Desc_table.set gdt 2
    (X86.Descriptor.data ~base:0 ~limit:0xF_FFFF ~dpl:X86.Privilege.R3 ());
  let view = X86.Desc_table.view gdt in
  let sel = X86.Selector.make ~rpl:X86.Privilege.R3 2 in
  let load =
    batched ~batches:20 ~per_batch:(50_000 / scale) (fun () ->
        ignore (X86.Segmentation.load_data view ~cpl:X86.Privilege.R3 sel))
  in
  [ m "x86.mmu.translate_ns" "ns" [ translate ]; m "x86.seg.load_data_ns" "ns" [ load ] ]

(* machine: register-only code at ring 0, no protection boundary. *)
let alu ~scale =
  let w = Workloads.pinned_boot Pbackend.Segmentation in
  let kernel = Palladium.kernel w in
  let task = Kernel.create_task kernel ~name:"ledger" in
  let km = Kmod.insmod kernel (Ulib.mix_image ~rounds:Workloads.mix_rounds) in
  let cpu = Palladium.cpu w in
  let invoke () =
    match Kmod.invoke km task ~fn:"mix" ~arg:7 with
    | Kernel.Completed, _, _ -> ()
    | _ -> failwith "ledger: mix module did not complete"
  in
  invoke ();
  let ns_per_instr =
    Quantiles.median
      (List.init (20 / scale) (fun _ ->
           let i0 = Cpu.instructions cpu and t0 = now () in
           invoke ();
           ns_since t0 /. float_of_int (Cpu.instructions cpu - i0)))
  in
  [ m "machine.alu_ns_per_instr" "ns" [ ns_per_instr ] ]

(* obs: one event-counter increment. *)
let obs ~scale =
  let c = Obs.Counters.counter "suite.ledger.incr" in
  [
    m "obs.counter_incr_ns" "ns"
      [ batched ~batches:20 ~per_batch:(100_000 / scale) (fun () -> Obs.Counters.incr c) ];
  ]

let run ~smoke =
  let scale = if smoke then 10 else 1 in
  List.concat_map (fun f -> f ~scale) [ verify; audit; x86; alu; obs ]
