(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation (section 5) on the simulated machine, plus the
   section 5.1 micro-measurements, the IPC comparison and an SFI
   ablation.

   Each subcommand prints its ASCII table and also writes a
   machine-readable BENCH_<name>.json artifact (schema
   "palladium.bench.v1": measured and paper values plus a snapshot and
   delta of the global event counters) so two runs can be diffed
   mechanically; see EXPERIMENTS.md.

   This is a library so the bench-smoke test can drive the subcommands
   with tiny iteration counts under dune runtest and pin their
   simulated columns; the [main] executable is a thin argv dispatcher
   over it. *)

(* Emit the JSON artifact next to the tables and say where it went.
   [histogram] is the latency distribution of the subcommand's primary
   metric; it becomes the artifact's "histogram" block. *)
let emit ~json_dir ~name ~since ?histogram body =
  let path =
    Obs.Bench_json.write ~dir:json_dir ~name ~since ?histogram ~body ()
  in
  Printf.printf "[%s]\n" path

(* --- Common worlds --------------------------------------------------- *)

let boot_app () =
  let w = Palladium.boot () in
  let app = Palladium.create_app w ~name:"bench" in
  (w, app)

let find_mark marks suffix =
  match
    List.find_opt (fun (n, _) -> Filename.check_suffix n suffix) marks
  with
  | Some (_, c) -> c
  | None -> failwith ("mark not found: " ^ suffix)

(* One protected null call, returning the mark trace. *)
let protected_null_call_marks app prepare =
  let cpu = Kernel.cpu (User_ext.kernel app) in
  Cpu.clear_marks cpu;
  (match User_ext.call app ~prepare ~arg:1 with
  | Ok _ -> ()
  | Error e -> Fmt.failwith "protected call failed: %a" User_ext.pp_call_error e);
  Cpu.marks cpu

type t1 = {
  t1_setup : int;
  t1_calling : int;
  t1_body : int;
  t1_returning : int;
  t1_restoring : int;
}

let t1_total r = r.t1_setup + r.t1_calling + r.t1_returning + r.t1_restoring

(* Measured inter-domain rows (Table 1 column "Inter"). *)
let measure_inter () =
  let _w, app = boot_app () in
  let ext = User_ext.seg_dlopen app Ulib.null_image in
  let prepare = User_ext.seg_dlsym app ext "null_fn" in
  ignore (protected_null_call_marks app prepare) (* warm TLB and pages *);
  let marks = protected_null_call_marks app prepare in
  let setup = find_mark marks ".setup" in
  let call = find_mark marks ".call" in
  let body = find_mark marks ".body" in
  let return = find_mark marks ".return" in
  let restore = find_mark marks ".restore" in
  let done_ = find_mark marks "rt.done" in
  {
    t1_setup = call - setup;
    t1_calling = body - call;
    t1_body = return - body;
    t1_returning = restore - return;
    t1_restoring = done_ - restore;
  }

(* Measured intra-domain call (same protection domain). *)
let measure_intra () =
  let _w, app = boot_app () in
  let ext = User_ext.seg_dlopen app Ulib.null_image in
  (* plain local call to the loaded function: no stubs involved *)
  let fn = User_ext.dlsym_data ext "null_fn" in
  let probe () =
    let cpu = Kernel.cpu (User_ext.kernel app) in
    Cpu.clear_marks cpu;
    (match User_ext.call_unprotected app ~fn ~arg:1 with
    | Ok _ -> ()
    | Error e -> Fmt.failwith "intra call failed: %a" User_ext.pp_call_error e);
    Cpu.marks cpu
  in
  ignore (probe ());
  let marks = probe () in
  let start = find_mark marks "rt.start" in
  let body = find_mark marks ".body" in
  let done_ = find_mark marks "rt.done" in
  (body - start, done_ - body)

(* Distribution of the Table 1 total (setup + calling + returning +
   restoring, body excluded) over [n] warm calls in one world. *)
let sample_t1_totals ~n =
  let h = Obs.Histogram.create () in
  let _w, app = boot_app () in
  let ext = User_ext.seg_dlopen app Ulib.null_image in
  let prepare = User_ext.seg_dlsym app ext "null_fn" in
  ignore (protected_null_call_marks app prepare) (* warm TLB and pages *);
  for _ = 1 to n do
    let marks = protected_null_call_marks app prepare in
    let setup = find_mark marks ".setup" in
    let body = find_mark marks ".body" in
    let return = find_mark marks ".return" in
    let done_ = find_mark marks "rt.done" in
    Obs.Histogram.observe h (done_ - setup - (return - body))
  done;
  h

let table1 ?(json_dir = ".") () =
  let since = Obs.Counters.snapshot () in
  let inter = measure_inter () in
  let intra_before, intra_after = measure_intra () in
  let h_total = sample_t1_totals ~n:16 in
  let p = Cycles.pentium in
  (* Theoretical ("Hardware") column: manual base costs without the
     calibrated hazard penalties. *)
  let hw_setup = 9 (* nine single-cycle move/push operations *) in
  let hw_calling = Cycles.theoretical_lret_pl_change p + p.Cycles.call_near in
  let hw_returning = Cycles.theoretical_lcall_pl_change p in
  let hw_restoring = 2 + p.Cycles.ret_near in
  Table.print ~title:"Table 1: protected call cost (CPU cycles)"
    ~aligns:[ Table.L ]
    ~headers:[ "Component"; "Inter"; "Intra"; "Hardware"; "Paper(Inter)" ]
    [
      [
        "Setting up stack";
        Table.cell_int inter.t1_setup;
        Table.cell_int (intra_before / 2);
        Table.cell_int hw_setup;
        "26";
      ];
      [
        "Calling function";
        Table.cell_int inter.t1_calling;
        Table.cell_int (intra_before - (intra_before / 2));
        Table.cell_int hw_calling;
        "34";
      ];
      [
        "Returning to caller";
        Table.cell_int inter.t1_returning;
        Table.cell_int (intra_after / 2);
        Table.cell_int hw_returning;
        "75";
      ];
      [
        "Restoring state";
        Table.cell_int inter.t1_restoring;
        Table.cell_int (intra_after - (intra_after / 2));
        Table.cell_int hw_restoring;
        "7";
      ];
      [
        "Total Cost";
        Table.cell_int (t1_total inter);
        Table.cell_int (intra_before + intra_after);
        Table.cell_int (hw_setup + hw_calling + hw_returning + hw_restoring);
        "142";
      ];
    ];
  Printf.printf
    "(null-function body, excluded from the rows as in the paper: %d cycles)\n"
    inter.t1_body;
  let open Obs.Json in
  let component label measured ~intra ~hw ~paper =
    Obj
      [
        ("component", String label);
        ("inter_cycles", Int measured);
        ("intra_cycles", Int intra);
        ("hardware_cycles", Int hw);
        ("paper_inter_cycles", Int paper);
      ]
  in
  emit ~json_dir ~name:"table1" ~since
    ~histogram:("protected_call_total_cycles", h_total)
    [
      ( "components",
        List
          [
            component "setup" inter.t1_setup ~intra:(intra_before / 2)
              ~hw:hw_setup ~paper:26;
            component "calling" inter.t1_calling
              ~intra:(intra_before - (intra_before / 2))
              ~hw:hw_calling ~paper:34;
            component "returning" inter.t1_returning ~intra:(intra_after / 2)
              ~hw:hw_returning ~paper:75;
            component "restoring" inter.t1_restoring
              ~intra:(intra_after - (intra_after / 2))
              ~hw:hw_restoring ~paper:7;
          ] );
      ( "total",
        Obj
          [
            ("inter_cycles", Int (t1_total inter));
            ("intra_cycles", Int (intra_before + intra_after));
            ( "hardware_cycles",
              Int (hw_setup + hw_calling + hw_returning + hw_restoring) );
            ("paper_inter_cycles", Int 142);
          ] );
      ("body_cycles", Int inter.t1_body);
    ];
  t1_total inter

(* --- Table 2: string reverse ---------------------------------------- *)

let fill_string app addr n =
  let s = Bytes.init (n - 1) (fun i -> Char.chr (Char.code 'a' + (i mod 26))) in
  User_ext.poke_bytes app addr (Bytes.cat s (Bytes.of_string "\000"))

let table2 ?(json_dir = ".") ?(runs = 100) () =
  let since = Obs.Counters.snapshot () in
  let _w, app = boot_app () in
  (* protected: extension segment; unprotected: ordinary shared lib *)
  let ext = User_ext.seg_dlopen app Ulib.strrev_image in
  let protected_prepare = User_ext.seg_dlsym app ext "strrev" in
  let unprot_image =
    Image.create ~name:"strrevlocal" ~exports:[ "strrev_l" ]
      (Ulib.strrev_body ~name:"strrev_l")
  in
  let unprot =
    Dyld.dlopen ~kernel:(User_ext.kernel app) ~task:(User_ext.task app)
      ~env:(User_ext.env app) unprot_image
  in
  let unprot_fn = Dyld.dlsym unprot "strrev_l" in
  let shared_buf = User_ext.xmalloc ext 512 in
  let h_prot = Obs.Histogram.create () in
  let measure ?h f =
    let xs =
      List.init runs (fun _ ->
          match f () with
          | Ok (_, cycles) ->
              (match h with
              | Some h -> Obs.Histogram.observe h cycles
              | None -> ());
              Cycles.cycles_to_usec cycles
          | Error e ->
              Fmt.failwith "table2 call failed: %a" User_ext.pp_call_error e)
    in
    (Stats.mean xs, Stats.stddev xs)
  in
  let rows =
    List.map
      (fun n ->
        fill_string app shared_buf n;
        let unprot_mean, unprot_sd =
          measure (fun () ->
              User_ext.call_unprotected app ~fn:unprot_fn ~arg:shared_buf)
        in
        fill_string app shared_buf n;
        let prot_mean, prot_sd =
          measure ~h:h_prot (fun () ->
              User_ext.call app ~prepare:protected_prepare ~arg:shared_buf)
        in
        let rpc = Rpc.round_trip_usec ~bytes:n in
        (n, (unprot_mean, unprot_sd), (prot_mean, prot_sd), rpc))
      [ 32; 64; 128; 256 ]
  in
  Table.print
    ~title:
      (Printf.sprintf "Table 2: string reverse (microseconds, mean of %d runs)"
         runs)
    ~headers:
      [ "Size (B)"; "Unprotected"; "Palladium"; "Linux RPC"; "Paper(unp/pall/rpc)" ]
    (List.map
       (fun (n, (u, _), (p, _), r) ->
         let paper =
           match n with
           | 32 -> "2.20 / 2.79 / 349.19"
           | 64 -> "4.06 / 4.65 / 352.55"
           | 128 -> "7.78 / 8.37 / 374.20"
           | 256 -> "15.22 / 15.97 / 423.33"
           | _ -> "-"
         in
         [
           Table.cell_int n;
           Table.cell_usec u;
           Table.cell_usec p;
           Table.cell_usec r;
           paper;
         ])
       rows);
  let paper_usec = function
    | 32 -> Some (2.20, 2.79, 349.19)
    | 64 -> Some (4.06, 4.65, 352.55)
    | 128 -> Some (7.78, 8.37, 374.20)
    | 256 -> Some (15.22, 15.97, 423.33)
    | _ -> None
  in
  let open Obs.Json in
  emit ~json_dir ~name:"table2" ~since
    ~histogram:("palladium_strrev_cycles", h_prot)
    [
      ("runs", Int runs);
      ( "rows",
        List
          (List.map
             (fun (n, (u, usd), (p, psd), r) ->
               let pu, pp, pr =
                 match paper_usec n with
                 | Some (a, b, c) -> (Some (Float a), Some (Float b), Some (Float c))
                 | None -> (None, None, None)
               in
               Obj
                 [
                   ("size_bytes", Int n);
                   ( "unprotected_usec",
                     Obs.Bench_json.measurement ~stddev:usd ?paper:pu (Float u)
                   );
                   ( "palladium_usec",
                     Obs.Bench_json.measurement ~stddev:psd ?paper:pp (Float p)
                   );
                   ("rpc_usec", Obs.Bench_json.measurement ?paper:pr (Float r));
                 ])
             rows) );
    ]

(* --- Table 3: CGI throughput ---------------------------------------- *)

let invocation_slug = function
  | Cgi_model.Cgi -> "cgi"
  | Cgi_model.Fast_cgi -> "fastcgi"
  | Cgi_model.Libcgi_protected -> "libcgi_protected"
  | Cgi_model.Libcgi -> "libcgi"
  | Cgi_model.Static -> "webserver"

let table3 ?(json_dir = ".") ~protected_call_usec () =
  let since = Obs.Counters.snapshot () in
  let h_lat = Obs.Histogram.create () in
  let rows = Bench_ab.sweep ~latency:h_lat ~protected_call_usec () in
  let paper = function
    | "28 Bytes" -> [ "98"; "193"; "437"; "448"; "460" ]
    | "1 KBytes" -> [ "92"; "188"; "423"; "431"; "436" ]
    | "10 KBytes" -> [ "76"; "130"; "311"; "312"; "315" ]
    | "100 KBytes" -> [ "33"; "52"; "57"; "57"; "57" ]
    | _ -> []
  in
  Table.print
    ~title:
      (Printf.sprintf
         "Table 3: CGI throughput, requests/sec (protected call = %.2f usec)"
         protected_call_usec)
    ~aligns:[ Table.L ]
    ~headers:
      [ "Size"; "CGI"; "FastCGI"; "LibCGI(prot)"; "LibCGI(unprot)"; "WebServer"; "Paper" ]
    (List.map
       (fun (row : Bench_ab.row) ->
         let v inv = Printf.sprintf "%.0f" (Bench_ab.throughput row inv) in
         [
           row.Bench_ab.size_label;
           v Cgi_model.Cgi;
           v Cgi_model.Fast_cgi;
           v Cgi_model.Libcgi_protected;
           v Cgi_model.Libcgi;
           v Cgi_model.Static;
           String.concat "/" (paper row.Bench_ab.size_label);
         ])
       rows);
  let open Obs.Json in
  emit ~json_dir ~name:"table3" ~since
    ~histogram:("libcgi_protected_request_usec", h_lat)
    [
      ("protected_call_usec", Float protected_call_usec);
      ( "rows",
        List
          (List.map
             (fun (row : Bench_ab.row) ->
               let paper_row = paper row.Bench_ab.size_label in
               let invs =
                 List.mapi
                   (fun i inv ->
                     let paper =
                       Option.map
                         (fun v -> Float v)
                         (Option.bind (List.nth_opt paper_row i)
                            float_of_string_opt)
                     in
                     ( invocation_slug inv ^ "_rps",
                       Obs.Bench_json.measurement ?paper
                         (Float (Bench_ab.throughput row inv)) ))
                   [
                     Cgi_model.Cgi;
                     Cgi_model.Fast_cgi;
                     Cgi_model.Libcgi_protected;
                     Cgi_model.Libcgi;
                     Cgi_model.Static;
                   ]
               in
               Obj
                 (("size_label", String row.Bench_ab.size_label)
                 :: ("size_bytes", Int row.Bench_ab.size_bytes)
                 :: invs))
             rows) );
    ]

(* --- Figure 7: packet filter ----------------------------------------- *)

let figure7 ?(json_dir = ".") () =
  let since = Obs.Counters.snapshot () in
  let w = Palladium.boot () in
  let kernel = Palladium.kernel w in
  let task = Kernel.create_task kernel ~name:"init" in
  let interp = Bpf_asm_interp.load kernel in
  let pkt = Packet.to_bytes (Pkt_gen.matching_packet ()) in
  let h_interp = Obs.Histogram.create () in
  let rows =
    List.map
      (fun n ->
        let terms = Filter_expr.canonical n in
        let prog = Filter_expr.to_bpf_tcpdump terms in
        (* correctness cross-check against the reference VM *)
        assert (Bpf_vm.accepts prog ~packet:pkt);
        Bpf_asm_interp.set_program interp prog;
        Bpf_asm_interp.set_packet interp pkt;
        ignore (Bpf_asm_interp.run interp task);
        for _ = 1 to 7 do
          let _, c = Bpf_asm_interp.run interp task in
          Obs.Histogram.observe h_interp c
        done;
        let bpf_val, bpf_cycles = Bpf_asm_interp.run interp task in
        Obs.Histogram.observe h_interp bpf_cycles;
        assert (bpf_val <> 0);
        let seg = Palladium.create_kernel_segment w in
        let nf = Native_compile.load seg terms in
        ignore (Native_compile.run nf task ~packet:pkt);
        match Native_compile.run nf task ~packet:pkt with
        | Ok (nv, nc) ->
            assert (nv = 1);
            (n, bpf_cycles, nc)
        | Error e -> Fmt.failwith "figure7: %a" Kernel_ext.pp_invoke_error e)
      [ 0; 1; 2; 3; 4 ]
  in
  Table.print
    ~title:
      "Figure 7: packet filter, CPU cycles per packet (conjunction, all terms true)"
    ~headers:[ "Terms"; "BPF (interp)"; "Palladium (compiled)"; "BPF/Palladium" ]
    (List.map
       (fun (n, b, p) ->
         [
           Table.cell_int n;
           Table.cell_int b;
           Table.cell_int p;
           Table.cell_ratio (float_of_int b) (float_of_int p);
         ])
       rows);
  print_endline
    "(paper: BPF grows steeply per term; compiled filter nearly flat;\n\
    \ compiled more than twice as fast at 4 terms)";
  let open Obs.Json in
  emit ~json_dir ~name:"figure7" ~since
    ~histogram:("bpf_interp_cycles_per_packet", h_interp)
    [
      ( "rows",
        List
          (List.map
             (fun (n, b, p) ->
               Obj
                 [
                   ("terms", Int n);
                   ("bpf_cycles", Int b);
                   ("palladium_cycles", Int p);
                   ( "ratio",
                     if p = 0 then Null
                     else Float (float_of_int b /. float_of_int p) );
                 ])
             rows) );
    ]

(* --- Section 5.1 micro-measurements ---------------------------------- *)

let micro ?(json_dir = ".") () =
  let since = Obs.Counters.snapshot () in
  (* dlopen vs seg_dlopen *)
  let _w, app = boot_app () in
  let cpu = Kernel.cpu (User_ext.kernel app) in
  let before = Cpu.cycles cpu in
  let _h =
    Dyld.dlopen ~kernel:(User_ext.kernel app) ~task:(User_ext.task app)
      ~env:(User_ext.env app) Ulib.libc_image
  in
  let dlopen_cycles = Cpu.cycles cpu - before in
  let before = Cpu.cycles cpu in
  let _x = User_ext.seg_dlopen app Ulib.null_image in
  let seg_dlopen_cycles = Cpu.cycles cpu - before in
  (* PPL marking of a 10-page region *)
  let area =
    Address_space.mmap (User_ext.task app).Task.asp ~len:(10 * 4096)
      ~perms:Vm_area.rw Vm_area.Data
  in
  Address_space.populate (User_ext.task app).Task.asp area;
  let before = Cpu.cycles cpu in
  User_ext.expose_range app ~addr:area.Vm_area.va_start ~len:(10 * 4096);
  let mark10 = Cpu.cycles cpu - before in
  (* SIGSEGV delivery: offending store by an extension *)
  let rogue = User_ext.seg_dlopen app Ulib.rogue_write_image in
  let poke = User_ext.seg_dlsym app rogue "poke" in
  let before = Cpu.cycles cpu in
  (match User_ext.call app ~prepare:poke ~arg:area.Vm_area.va_start with
  | Error (User_ext.Protection_fault _) -> failwith "expected success (exposed)"
  | _ -> ());
  let ok_call = Cpu.cycles cpu - before in
  User_ext.hide_range app ~addr:area.Vm_area.va_start ~len:(10 * 4096);
  let h_segv = Obs.Histogram.create () in
  let segv_call = ref 0 in
  for _ = 1 to 8 do
    let before = Cpu.cycles cpu in
    (match User_ext.call app ~prepare:poke ~arg:area.Vm_area.va_start with
    | Error (User_ext.Protection_fault _) -> ()
    | _ -> failwith "expected SIGSEGV");
    segv_call := Cpu.cycles cpu - before;
    Obs.Histogram.observe h_segv !segv_call
  done;
  let segv_call = !segv_call in
  (* kernel GP fault processing *)
  let w2 = Palladium.boot () in
  let task2 = Kernel.create_task (Palladium.kernel w2) ~name:"t" in
  let seg = Palladium.create_kernel_segment w2 in
  ignore (Kernel_ext.insmod seg Ulib.rogue_read_image);
  let cpu2 = Kernel.cpu (Palladium.kernel w2) in
  let before = Cpu.cycles cpu2 in
  (match
     Kernel_ext.invoke ~task:task2 seg ~name:"rogueread$peek"
       ~arg:(Kernel_ext.seg_size seg + 4096)
   with
  | Error (Kernel_ext.Aborted_fault _) -> ()
  | _ -> failwith "expected GP fault");
  let gp_call = Cpu.cycles cpu2 - before in
  let p = Cycles.pentium in
  Table.print ~title:"Section 5.1 micro-measurements" ~aligns:[ Table.L ]
    ~headers:[ "Quantity"; "Measured"; "Paper" ]
    [
      [
        "dlopen (usec)";
        Table.cell_usec (Cycles.cycles_to_usec dlopen_cycles);
        "400";
      ];
      [
        "seg_dlopen (usec)";
        Table.cell_usec (Cycles.cycles_to_usec seg_dlopen_cycles);
        "420";
      ];
      [ "PPL marking, 10 pages (cycles)"; Table.cell_int mark10; "3450-5450" ];
      [
        "SIGSEGV delivery (cycles, over a clean call)";
        Table.cell_int (segv_call - ok_call);
        "3325";
      ];
      [
        "kernel GP processing (cycles, whole aborted call)";
        Table.cell_int gp_call;
        "1020 + call";
      ];
      [
        "segment register load (cycles)";
        Table.cell_int (Cycles.measured_mov_sreg p);
        "12 (manual: 2-3)";
      ];
    ];
  let open Obs.Json in
  emit ~json_dir ~name:"micro" ~since
    ~histogram:("sigsegv_call_cycles", h_segv)
    [
      ( "dlopen_usec",
        Obs.Bench_json.measurement ~paper:(Float 400.0)
          (Float (Cycles.cycles_to_usec dlopen_cycles)) );
      ( "seg_dlopen_usec",
        Obs.Bench_json.measurement ~paper:(Float 420.0)
          (Float (Cycles.cycles_to_usec seg_dlopen_cycles)) );
      ( "ppl_mark_10_pages_cycles",
        Obs.Bench_json.measurement ~paper:(String "3450-5450") (Int mark10) );
      ( "sigsegv_delivery_cycles",
        Obs.Bench_json.measurement ~paper:(Int 3325)
          (Int (segv_call - ok_call)) );
      ("kernel_gp_call_cycles", Int gp_call);
      ( "mov_sreg_cycles",
        Obs.Bench_json.measurement ~paper:(Int 12)
          (Int (Cycles.measured_mov_sreg p)) );
    ]

(* --- IPC comparison --------------------------------------------------- *)

let ipc_cmp ?(json_dir = ".") ~palladium_cycles () =
  let since = Obs.Counters.snapshot () in
  (* distribution of whole warm null calls (stub entry to runtime
     return), the quantity compared against the other mechanisms *)
  let h_call = Obs.Histogram.create () in
  let _w, app = boot_app () in
  let ext = User_ext.seg_dlopen app Ulib.null_image in
  let prepare = User_ext.seg_dlsym app ext "null_fn" in
  let cpu = Kernel.cpu (User_ext.kernel app) in
  ignore (User_ext.call app ~prepare ~arg:1);
  for _ = 1 to 16 do
    let before = Cpu.cycles cpu in
    ignore (User_ext.call app ~prepare ~arg:1);
    Obs.Histogram.observe h_call (Cpu.cycles cpu - before)
  done;
  Table.print ~title:"IPC comparison (section 5.1)" ~aligns:[ Table.L ]
    ~headers:[ "Mechanism"; "Cost"; "Domain crossings"; "Notes" ]
    [
      [
        "Palladium protected call+return";
        Printf.sprintf "%d cycles" palladium_cycles;
        Table.cell_int Ipc_costs.palladium_domain_crossings;
        "measured, Pentium 200 model";
      ];
      [
        "L4 IPC request-reply (best case)";
        Printf.sprintf "%d cycles" L4.best_case_cycles;
        Table.cell_int L4.domain_crossings;
        Printf.sprintf "%.2f usec on P166" L4.usec_on_p166;
      ];
      [
        "LRPC null call";
        Printf.sprintf "%.0f usec" Lrpc.null_call_usec;
        Table.cell_int Lrpc.domain_crossings;
        Printf.sprintf "%.1fx faster than RPC on C-VAX" Lrpc.speedup_vs_rpc;
      ];
      [
        "Linux socket RPC (32 B)";
        Printf.sprintf "%.0f usec" (Rpc.round_trip_usec ~bytes:32);
        "4+";
        "Table 2 baseline";
      ];
    ];
  let open Obs.Json in
  let mech name cost_cycles cost_usec crossings =
    Obj
      [
        ("mechanism", String name);
        ("cost_cycles", (match cost_cycles with Some c -> Int c | None -> Null));
        ("cost_usec", match cost_usec with Some u -> Float u | None -> Null);
        ("domain_crossings", Int crossings);
      ]
  in
  emit ~json_dir ~name:"ipc" ~since
    ~histogram:("protected_null_call_cycles", h_call)
    [
      ( "mechanisms",
        List
          [
            mech "palladium" (Some palladium_cycles)
              (Some (Cycles.cycles_to_usec palladium_cycles))
              Ipc_costs.palladium_domain_crossings;
            mech "l4" (Some L4.best_case_cycles) (Some L4.usec_on_p166)
              L4.domain_crossings;
            mech "lrpc" None (Some Lrpc.null_call_usec) Lrpc.domain_crossings;
            mech "linux_rpc_32b" None
              (Some (Rpc.round_trip_usec ~bytes:32))
              4;
          ] );
    ]

(* --- SFI ablation ----------------------------------------------------- *)

let ablation ?(json_dir = ".") ?(sizes = [ 32; 128; 512 ]) () =
  let since = Obs.Counters.snapshot () in
  let w = Palladium.boot () in
  let kernel = Palladium.kernel w in
  let task = Kernel.create_task kernel ~name:"init" in
  (* strrev over an in-module page-aligned buffer, native vs SFI *)
  let buf_image name =
    Image.create ~name
      ~bss:[ Image.bss_item ~align:4096 "sfibuf" 4096 ]
      ~exports:[ "strrev" ]
      (Ulib.strrev_body ~name:"strrev")
  in
  let run_variant ?h image n =
    let km = Kmod.insmod kernel image in
    let s = Bytes.cat (Bytes.make (n - 1) 'x') (Bytes.of_string "\000") in
    Kmod.poke km ~symbol:"sfibuf" ~off:0 s;
    let arg = Kmod.symbol km "sfibuf" in
    ignore (Kmod.invoke km task ~fn:"strrev" ~arg);
    Kmod.poke km ~symbol:"sfibuf" ~off:0 s;
    match Kmod.invoke km task ~fn:"strrev" ~arg with
    | Kernel.Completed, _, cycles ->
        (match h with
        | Some h -> Obs.Histogram.observe h cycles
        | None -> ());
        cycles
    | _ -> failwith "ablation run failed"
  in
  let h_native = Obs.Histogram.create () in
  (* identity region: the sandbox AND/OR pair costs the same wherever
     the region lies; a full-width region keeps legal addresses
     unchanged so the workload's semantics are preserved *)
  let region = { Sfi.base = 0; size = 1 lsl 30 } in
  let rows =
    List.map
      (fun n ->
        let native = run_variant ~h:h_native (buf_image "nat") n in
        let wo =
          run_variant (Sfi.sandbox_image Sfi.Write_only region (buf_image "sfw")) n
        in
        let rw =
          run_variant (Sfi.sandbox_image Sfi.Read_write region (buf_image "sfr")) n
        in
        (n, native, wo, rw))
      sizes
  in
  Table.print
    ~title:"Ablation: SFI per-instruction overhead vs hardware protection"
    ~headers:
      [ "strrev bytes"; "native"; "SFI (write)"; "SFI (r/w)"; "wo ovh"; "rw ovh" ]
    (List.map
       (fun (n, nat, wo, rw) ->
         [
           Table.cell_int n;
           Table.cell_int nat;
           Table.cell_int wo;
           Table.cell_int rw;
           Printf.sprintf "%.0f%%"
             (100.0 *. (float_of_int (wo - nat) /. float_of_int nat));
           Printf.sprintf "%.0f%%"
             (100.0 *. (float_of_int (rw - nat) /. float_of_int nat));
         ])
       rows);
  print_endline
    "(SFI overhead grows with the amount of extension code executed;\n\
    \ Palladium's cost is the fixed crossing of Table 1 — the section 2.3\n\
    \ comparison)";
  let open Obs.Json in
  emit ~json_dir ~name:"ablation" ~since
    ~histogram:("native_strrev_cycles", h_native)
    [
      ( "rows",
        List
          (List.map
             (fun (n, nat, wo, rw) ->
               Obj
                 [
                   ("strrev_bytes", Int n);
                   ("native_cycles", Int nat);
                   ("sfi_write_cycles", Int wo);
                   ("sfi_rw_cycles", Int rw);
                   ( "write_overhead",
                     Float (float_of_int (wo - nat) /. float_of_int nat) );
                   ( "rw_overhead",
                     Float (float_of_int (rw - nat) /. float_of_int nat) );
                 ])
             rows) );
    ]

(* --- SFI-full vs SFI-verified vs Palladium --------------------------- *)

(* The payoff of the load-time verifier (DESIGN.md "Load-time
   verification"): run the compiled 4-term packet filter under three
   protection schemes — blanket SFI, SFI with verifier-proved guards
   elided, and Palladium's hardware segment — over the same packet
   stream, checking they classify identically. *)
let sfi ?(json_dir = ".") ?(packets = 48) () =
  let since = Obs.Counters.snapshot () in
  let w = Palladium.boot () in
  let kernel = Palladium.kernel w in
  let task = Kernel.create_task kernel ~name:"init" in
  let terms = Filter_expr.canonical 4 in
  let text = Native_compile.filter_text terms in
  let region = { Sfi.base = 0; size = 1 lsl 30 } in
  let pktbuf_bytes = 2048 in
  (* the argument is the packet buffer's segment offset; telling the
     verifier it lies below the region's top (minus the buffer) is
     what lets it prove the filter's loads in-bounds *)
  let arg = (0, region.Sfi.size - pktbuf_bytes) in
  let guards mode =
    Sfi.inserted_instructions ~mode ~entries:[ "filter" ] ~arg ~region
      Sfi.Read_write text
  in
  let g_full = guards Sfi.Full in
  let g_verified = guards Sfi.Verified in
  if g_verified <> 0 then
    Printf.ksprintf failwith
      "sfi: verifier left %d of %d guards on the compiled filter (expected \
       full elision)"
      g_verified g_full;
  let filter_image name =
    Image.create ~name
      ~bss:[ Image.bss_item ~align:4096 "pktbuf" pktbuf_bytes ]
      ~exports:[ "filter" ] text
  in
  let load_kmod image =
    let km = Kmod.insmod kernel image in
    let buf = Kmod.symbol km "pktbuf" in
    (km, buf)
  in
  let native = load_kmod (filter_image "vfnat") in
  let full =
    load_kmod
      (Sfi.sandbox_image ~arg Sfi.Read_write region (filter_image "vffull"))
  in
  let verified =
    load_kmod
      (Sfi.sandbox_image ~mode:Sfi.Verified ~arg Sfi.Read_write region
         (filter_image "vfver"))
  in
  let run_kmod (km, buf) pkt =
    Kmod.poke km ~symbol:"pktbuf" ~off:0 (Bytes.make pktbuf_bytes '\000');
    Kmod.poke km ~symbol:"pktbuf" ~off:0 pkt;
    match Kmod.invoke km task ~fn:"filter" ~arg:buf with
    | Kernel.Completed, v, cycles -> (v, cycles)
    | _ -> failwith "sfi: filter invocation failed"
  in
  let seg = Palladium.create_kernel_segment w in
  let nf = Native_compile.load seg terms in
  let stream =
    List.map Packet.to_bytes
      (Pkt_gen.stream (Pkt_gen.create ()) ~count:packets ~match_percent:25)
  in
  let h_full = Obs.Histogram.create () in
  let totals = Array.make 4 0 in
  let matches = ref 0 in
  List.iter
    (fun pkt ->
      let vn, cn = run_kmod native pkt in
      let vf, cf = run_kmod full pkt in
      let vv, cv = run_kmod verified pkt in
      let vp, cp =
        match Native_compile.run nf task ~packet:pkt with
        | Ok (v, c) -> (v, c)
        | Error e -> Fmt.failwith "sfi: %a" Kernel_ext.pp_invoke_error e
      in
      if not (vn = vf && vn = vv && vn = vp) then
        failwith "sfi: protection variants disagree on a packet";
      if vn = 1 then incr matches;
      Obs.Histogram.observe h_full cf;
      totals.(0) <- totals.(0) + cn;
      totals.(1) <- totals.(1) + cf;
      totals.(2) <- totals.(2) + cv;
      totals.(3) <- totals.(3) + cp)
    stream;
  let mean i = float_of_int totals.(i) /. float_of_int packets in
  Table.print
    ~title:
      "SFI guard elision: 4-term compiled filter, mean CPU cycles per packet"
    ~headers:[ "variant"; "guard instrs"; "cycles/pkt" ]
    [
      [ "native (unprotected)"; "0"; Printf.sprintf "%.1f" (mean 0) ];
      [ "SFI full"; string_of_int g_full; Printf.sprintf "%.1f" (mean 1) ];
      [
        "SFI verified"; string_of_int g_verified; Printf.sprintf "%.1f" (mean 2);
      ];
      [ "Palladium (segment)"; "0"; Printf.sprintf "%.1f" (mean 3) ];
    ];
  Printf.printf
    "(verifier proved %d of %d guard instructions redundant; %d/%d packets \
     matched)\n"
    (g_full - g_verified) g_full !matches packets;
  let open Obs.Json in
  emit ~json_dir ~name:"sfi" ~since
    ~histogram:("sfi_full_cycles_per_packet", h_full)
    [
      ( "guards",
        Obj [ ("sfi_full", Int g_full); ("sfi_verified", Int g_verified) ] );
      ( "cycles_per_packet",
        Obj
          [
            ("native", Float (mean 0));
            ("sfi_full", Float (mean 1));
            ("sfi_verified", Float (mean 2));
            ("palladium", Float (mean 3));
          ] );
      ("packets", Int packets);
      ("matched", Int !matches);
    ]

(* --- Protection-backend comparison ------------------------------------ *)

(* One matrix: every protection backend — segmentation, protection
   keys and the two SFI flavours — over the same workloads (protected
   null call, string reverse, the compiled 4-term packet filter, the
   LibCGI web-server sweep and a rogue-store fault injection), with
   per-backend TLB pressure, guard counts and audit coverage.  The
   backends differ only in boundary hardware, so every architectural
   output must agree: the reversed string, the per-packet filter
   verdicts, the requests completed, and containment of the rogue
   store. *)

(* The matrix rows: the two hosting backends, and the two SFI modes as
   comparators that rewrite a kernel module instead of hosting an
   application. *)
type bk_comparator = Host of Pbackend.kind | Sfi_mode of Sfi.mode

let bk_comparators =
  [ Host Pbackend.Segmentation; Host Pbackend.Mpk; Sfi_mode Sfi.Full;
    Sfi_mode Sfi.Verified ]

let bk_name = function
  | Host k -> Pbackend.kind_name k
  | Sfi_mode Sfi.Full -> "sfi-full"
  | Sfi_mode Sfi.Verified -> "sfi-verified"

type bk_row = {
  bk_kind : bk_comparator;
  bk_xfer_cycles : float; (* mean protected null-call cycles *)
  bk_strrev : string;
  bk_filter_cycles : float; (* mean cycles per packet *)
  bk_verdicts : int list;
  bk_rps : float;
  bk_requests : int;
  bk_contained : bool;
  bk_fault_class : string;
  bk_guards : int; (* SFI guard instructions on the filter *)
  bk_tlb_hits : int;
  bk_tlb_misses : int;
  bk_tlb_flushes : int;
  bk_audit_ok : bool;
  bk_audit_findings : int;
  bk_audit_invariants : int;
}

let bk_region = { Sfi.base = 0; size = 1 lsl 30 }

let bk_string = "backends" (* 8 bytes: two u32 reads under Kmod *)

let bk_u32s_to_string ws =
  String.init
    (4 * List.length ws)
    (fun idx -> Char.chr ((List.nth ws (idx / 4) lsr (8 * (idx mod 4))) land 0xff))

let bk_fault_name = function
  | X86.Fault.Page_key _ -> "page-key"
  | X86.Fault.Page_privilege _ -> "page-privilege"
  | f -> Fmt.str "%a" X86.Fault.pp f

(* Shared per-row finisher: webserver sweep priced at this backend's
   measured transfer cost, TLB pressure since the row began, audit
   coverage of the row's world. *)
let bk_finish ~since ~requests ~kernel row =
  let ws =
    Server.run ~total:requests ~invocation:Cgi_model.Libcgi_protected
      ~bytes:1024
      ~protected_call_usec:(row.bk_xfer_cycles /. float_of_int Cycles.mhz)
      ()
  in
  let d = Obs.Counters.delta ~since in
  let g n = Option.value (List.assoc_opt n d) ~default:0 in
  let report = Paudit.force_audit ~context:"bench backends" kernel in
  {
    row with
    bk_rps = ws.Server.throughput_rps;
    bk_requests = ws.Server.requests;
    bk_tlb_hits = g "x86.tlb.hits";
    bk_tlb_misses = g "x86.tlb.misses";
    bk_tlb_flushes = g "x86.tlb.flushes";
    bk_audit_ok = Audit.Engine.ok report;
    bk_audit_findings = List.length report.Audit.Engine.rp_findings;
    bk_audit_invariants = List.length Audit.Invariant.catalogue;
  }

let bk_empty kind =
  {
    bk_kind = kind;
    bk_xfer_cycles = 0.0;
    bk_strrev = "";
    bk_filter_cycles = 0.0;
    bk_verdicts = [];
    bk_rps = 0.0;
    bk_requests = 0;
    bk_contained = false;
    bk_fault_class = "";
    bk_guards = 0;
    bk_tlb_hits = 0;
    bk_tlb_misses = 0;
    bk_tlb_flushes = 0;
    bk_audit_ok = false;
    bk_audit_findings = 0;
    bk_audit_invariants = 0;
  }

(* Application-hosting backends (segmentation, protection keys): one
   world, one backend-generic application, every workload through
   [Pbackend]. *)
let bk_app_row ~hist ~stream ~filter_image ~calls ~requests kind =
  let since = Obs.Counters.snapshot () in
  let w = Palladium.boot ~backend:kind () in
  let app = Palladium.create_backend_app w ~name:"bk" in
  (* transfer cost: protected null call *)
  let next = Pbackend.load app Ulib.null_image in
  let prepare = Pbackend.resolve app next "null_fn" in
  ignore (Pbackend.call app ~prepare ~arg:1);
  let cyc = ref 0 in
  for _ = 1 to calls do
    match Pbackend.call app ~prepare ~arg:1 with
    | Ok (_, c) ->
        Obs.Histogram.observe hist c;
        cyc := !cyc + c
    | Error e -> Fmt.failwith "backends: null call: %a" User_ext.pp_call_error e
  done;
  (* strrev over a shared heap buffer *)
  let rev = Pbackend.load app Ulib.strrev_image in
  let rev_prep = Pbackend.resolve app rev "strrev" in
  let buf = Pbackend.xmalloc rev 64 in
  Pbackend.poke_bytes app buf (Bytes.of_string (bk_string ^ "\000"));
  (match Pbackend.call app ~prepare:rev_prep ~arg:buf with
  | Ok _ -> ()
  | Error e -> Fmt.failwith "backends: strrev: %a" User_ext.pp_call_error e);
  let reversed =
    Bytes.to_string (Pbackend.peek_bytes app buf (String.length bk_string))
  in
  (* compiled packet filter, hosted as a user-level extension *)
  let fext = Pbackend.load app filter_image in
  let fprep = Pbackend.resolve app fext "filter" in
  let fbuf = Pbackend.dlsym_data fext Pconfig.shared_area_symbol in
  let fcyc = ref 0 in
  let verdicts =
    List.map
      (fun pkt ->
        Pbackend.poke_bytes app fbuf
          (Bytes.make Native_compile.shared_bytes '\000');
        Pbackend.poke_bytes app fbuf pkt;
        match Pbackend.call app ~prepare:fprep ~arg:fbuf with
        | Ok (v, c) ->
            fcyc := !fcyc + c;
            v
        | Error e -> Fmt.failwith "backends: filter: %a" User_ext.pp_call_error e)
      stream
  in
  (* fault injection: extension store to hidden application memory *)
  let task = Pbackend.task app in
  let area =
    Address_space.mmap task.Task.asp ~len:4096 ~perms:Vm_area.rw Vm_area.Data
  in
  Address_space.populate task.Task.asp area;
  let cell = area.Vm_area.va_start in
  Pbackend.poke_u32 app cell 0x5eed;
  let rogue = Pbackend.load app Ulib.rogue_write_image in
  let poke = Pbackend.resolve app rogue "poke" in
  let contained, fault_class =
    match Pbackend.call app ~prepare:poke ~arg:cell with
    | Ok _ -> (false, "completed")
    | Error (User_ext.Protection_fault f) ->
        (Pbackend.peek_u32 app cell = 0x5eed, bk_fault_name f)
    | Error e -> (false, Fmt.str "%a" User_ext.pp_call_error e)
  in
  let row =
    {
      (bk_empty (Host kind)) with
      bk_xfer_cycles = float_of_int !cyc /. float_of_int calls;
      bk_strrev = reversed;
      bk_filter_cycles =
        float_of_int !fcyc /. float_of_int (List.length stream);
      bk_verdicts = verdicts;
      bk_contained = contained;
      bk_fault_class = fault_class;
    }
  in
  let row = bk_finish ~since ~requests ~kernel:(Palladium.kernel w) row in
  Palladium.teardown w;
  row

(* SFI backends: the same workloads as rewritten kernel modules.  SFI
   has no transfer gate — its tax is the inline guards — so the
   "transfer" is a bare module invocation, and containment comes from
   address masking rather than a fault. *)
let bk_sfi_row ~hist ~stream ~filter_image ~terms ~calls ~requests mode =
  let since = Obs.Counters.snapshot () in
  let w = Palladium.boot () in
  let kernel = Palladium.kernel w in
  let task = Kernel.create_task kernel ~name:"bk" in
  let invoke km fn arg =
    match Kmod.invoke km task ~fn ~arg with
    | Kernel.Completed, v, c -> (v, c)
    | _ -> failwith "backends: sfi invocation failed"
  in
  let nm =
    Kmod.insmod kernel
      (Sfi.sandbox_image ~mode Sfi.Read_write bk_region Ulib.null_image)
  in
  ignore (invoke nm "null_fn" 1);
  let cyc = ref 0 in
  for _ = 1 to calls do
    let _, c = invoke nm "null_fn" 1 in
    Obs.Histogram.observe hist c;
    cyc := !cyc + c
  done;
  (* strrev with the buffer in the module's own bss *)
  let rev_image =
    Image.create ~name:"bkrev"
      ~bss:[ Image.bss_item ~align:4 "buf" 64 ]
      ~exports:[ "strrev" ]
      (Ulib.strrev_body ~name:"strrev")
  in
  let rm =
    Kmod.insmod kernel (Sfi.sandbox_image ~mode Sfi.Read_write bk_region rev_image)
  in
  Kmod.poke rm ~symbol:"buf" ~off:0 (Bytes.of_string (bk_string ^ "\000"));
  ignore (invoke rm "strrev" (Kmod.symbol rm "buf"));
  let reversed =
    bk_u32s_to_string
      [ Kmod.peek_u32 rm ~symbol:"buf" ~off:0;
        Kmod.peek_u32 rm ~symbol:"buf" ~off:4 ]
  in
  (* compiled filter; the verifier elides guards it can prove safe *)
  let arg = (0, bk_region.Sfi.size - Native_compile.shared_bytes) in
  let fm =
    Kmod.insmod kernel
      (Sfi.sandbox_image ~mode ~arg Sfi.Read_write bk_region filter_image)
  in
  let fbuf = Kmod.symbol fm Pconfig.shared_area_symbol in
  let guards =
    Sfi.inserted_instructions ~mode ~entries:[ "filter" ] ~arg
      ~region:bk_region Sfi.Read_write
      (Native_compile.filter_text terms)
  in
  let fcyc = ref 0 in
  let verdicts =
    List.map
      (fun pkt ->
        Kmod.poke fm ~symbol:Pconfig.shared_area_symbol ~off:0
          (Bytes.make Native_compile.shared_bytes '\000');
        Kmod.poke fm ~symbol:Pconfig.shared_area_symbol ~off:0 pkt;
        let v, c = invoke fm "filter" fbuf in
        fcyc := !fcyc + c;
        v)
      stream
  in
  (* fault injection: the rogue store aims outside the region and the
     inserted mask forces it back inside — containment by rewriting *)
  let gm =
    Kmod.insmod kernel
      (Sfi.sandbox_image ~mode Sfi.Read_write bk_region Ulib.rogue_write_image)
  in
  let outside = bk_region.Sfi.size + 0x44 in
  let contained, fault_class =
    match Kmod.invoke gm task ~fn:"poke" ~arg:outside with
    | Kernel.Completed, _, _ -> (true, "sfi-masked")
    | _ -> (false, "faulted")
  in
  let row =
    {
      (bk_empty (Sfi_mode mode)) with
      bk_xfer_cycles = float_of_int !cyc /. float_of_int calls;
      bk_strrev = reversed;
      bk_filter_cycles =
        float_of_int !fcyc /. float_of_int (List.length stream);
      bk_verdicts = verdicts;
      bk_contained = contained;
      bk_fault_class = fault_class;
      bk_guards = guards;
    }
  in
  let row = bk_finish ~since ~requests ~kernel row in
  Palladium.teardown w;
  row

let backends ?(json_dir = ".") ?(packets = 32) ?(calls = 60) ?(requests = 300)
    () =
  let since = Obs.Counters.snapshot () in
  let stream =
    List.map Packet.to_bytes
      (Pkt_gen.stream (Pkt_gen.create ()) ~count:packets ~match_percent:25)
  in
  let terms = Filter_expr.canonical 4 in
  let filter_image = Native_compile.image terms in
  let hist = Obs.Histogram.create () in
  let rows =
    List.map
      (function
        | Host kind ->
            bk_app_row ~hist ~stream ~filter_image ~calls ~requests kind
        | Sfi_mode mode ->
            bk_sfi_row ~hist ~stream ~filter_image ~terms ~calls ~requests mode)
      bk_comparators
  in
  let base = List.hd rows in
  let agree =
    List.for_all
      (fun r ->
        String.equal r.bk_strrev base.bk_strrev
        && r.bk_verdicts = base.bk_verdicts
        && r.bk_requests = base.bk_requests
        && r.bk_contained)
      rows
  in
  let find k = List.find (fun r -> r.bk_kind = Host k) rows in
  let mpk_cheaper =
    (find Pbackend.Mpk).bk_xfer_cycles
    < (find Pbackend.Segmentation).bk_xfer_cycles
  in
  let matches = List.length (List.filter (( = ) 1) base.bk_verdicts) in
  Table.print
    ~title:
      "Protection backends: same workloads, different boundary enforcement"
    ~headers:
      [
        "backend"; "xfer cyc"; "filter cyc/pkt"; "req/s"; "fault"; "guards";
        "tlb miss"; "audit";
      ]
    (List.map
       (fun r ->
         [
           bk_name r.bk_kind;
           Printf.sprintf "%.1f" r.bk_xfer_cycles;
           Printf.sprintf "%.1f" r.bk_filter_cycles;
           Printf.sprintf "%.0f" r.bk_rps;
           r.bk_fault_class;
           string_of_int r.bk_guards;
           string_of_int r.bk_tlb_misses;
           Printf.sprintf "%s (%d/%d)"
             (if r.bk_audit_ok then "ok" else "FINDINGS")
             r.bk_audit_invariants r.bk_audit_findings;
         ])
       rows);
  Printf.printf
    "(%s; mpk transfer %s segmentation; %d/%d packets matched)\n"
    (if agree then "all backends agree on every workload output"
     else "BACKENDS DISAGREE")
    (if mpk_cheaper then "cheaper than" else "NOT cheaper than")
    matches packets;
  if not agree then failwith "bench backends: backends disagree on outputs";
  if not mpk_cheaper then
    failwith "bench backends: mpk transfer not cheaper than segmentation";
  let open Obs.Json in
  let row_json r =
    Obj
      [
        ("backend", String (bk_name r.bk_kind));
        ("transfer_cycles", Float r.bk_xfer_cycles);
        ("strrev", String r.bk_strrev);
        ("filter_cycles_per_packet", Float r.bk_filter_cycles);
        ( "filter_matches",
          Int (List.length (List.filter (( = ) 1) r.bk_verdicts)) );
        ("webserver_rps", Float r.bk_rps);
        ("webserver_requests", Int r.bk_requests);
        ("fault_contained", Bool r.bk_contained);
        ("fault_class", String r.bk_fault_class);
        ("guard_instructions", Int r.bk_guards);
        ( "tlb",
          Obj
            [
              ("hits", Int r.bk_tlb_hits);
              ("misses", Int r.bk_tlb_misses);
              ("flushes", Int r.bk_tlb_flushes);
            ] );
        ( "audit",
          Obj
            [
              ("ok", Bool r.bk_audit_ok);
              ("findings", Int r.bk_audit_findings);
              ("invariants_checked", Int r.bk_audit_invariants);
            ] );
      ]
  in
  emit ~json_dir ~name:"backends" ~since
    ~histogram:("backends_transfer_cycles", hist)
    [
      ("backends", List (List.map row_json rows));
      ("agreement", Bool agree);
      ("mpk_cheaper_than_seg", Bool mpk_cheaper);
      ( "workloads",
        List
          [
            String "null-call"; String "strrev"; String "filter";
            String "webserver"; String "fault-injection";
          ] );
      ("packets", Int packets);
      ("calls", Int calls);
      ("requests", Int requests);
    ]

(* --- Verifier soundness oracle ----------------------------------------- *)

(* Falsification run for the static analysis behind guard elision:
   random/mutated programs go through verify, then execute under both
   engines in a world whose segment limits equal the analysis region,
   with every static access classification checked against the
   concrete effective addresses (see [Soundness]).  Zero violations is
   the pass condition; any violation leaves a minimised
   SOUNDNESS_*.json counterexample behind and fails the run. *)
let soundness ?(json_dir = ".") ?(specimens = 200) ?(seed = 0xA11D)
    ?(fuel = 2000) () =
  let since = Obs.Counters.snapshot () in
  let s = Soundness.run ~json_dir ~fuel ~count:specimens ~seed () in
  let h = Obs.Histogram.create () in
  List.iter (Obs.Histogram.observe h) s.Soundness.s_spec_verify_us;
  let open Soundness in
  Table.print
    ~title:
      (Printf.sprintf
         "Verifier soundness oracle: %d specimens (seed %#x), both engines"
         specimens seed)
    ~headers:[ "quantity"; "count" ]
    [
      [ "specimens skipped (flow errors)"; string_of_int s.s_skipped ];
      [ "engine runs checked"; string_of_int s.s_runs ];
      [ "runs diverged (wild store)"; string_of_int s.s_diverged ];
      [ "accesses classified"; string_of_int s.s_accesses ];
      [ "  proved"; string_of_int s.s_proved ];
      [ "  stack-relative"; string_of_int s.s_stack_rel ];
      [ "  runtime-checked"; string_of_int s.s_runtime ];
      [ "  out-of-bounds"; string_of_int s.s_oob ];
      [ "guard-elidable instructions"; string_of_int s.s_elided ];
      [ "contract violations"; string_of_int s.s_violations ];
    ];
  Printf.printf "(static analysis: %d instrs in %.3fs CPU)\n" s.s_instrs
    s.s_verify_s;
  let open Obs.Json in
  emit ~json_dir ~name:"verify" ~since
    ~histogram:("verify_us_per_specimen", h)
    [
      ("seed", Int seed);
      ("specimens", Int specimens);
      ("fuel", Int fuel);
      ("soundness", Soundness.summary_json s);
    ];
  if s.s_violations <> 0 then
    Printf.ksprintf failwith
      "soundness: %d contract violations across %d specimens (minimised \
       counterexamples in SOUNDNESS_*.json)"
      s.s_violations specimens;
  s

(* --- Certified WCET vs observed worst case ----------------------------- *)

(* How tight are the verifier's certified resource bounds?  Each
   catalogue extension is verified the way the loaders verify it (same
   entries/externs shape, the oracle region), then driven in the bare
   oracle world while the architectural cycle ledger runs; the table
   compares the certified WCET/stack/instruction bounds against the
   observed worst case over the workload.  Pass conditions: no
   observation may exceed a finite certified bound, and the compiled
   4-term packet filter must be certified finite with
   static/observed-worst tightness at most 2x.  The admission rows
   demonstrate what the bound buys the web-server model: with a
   deadline and a per-handler WCET, hopeless requests are shed at
   arrival instead of missing the deadline in the queue. *)

type wcet_row = {
  wr_name : string;
  wr_bounds : Vcost.bounds;
  wr_worst : int; (* observed worst architectural cycles *)
  wr_mean : float;
  wr_stack : int; (* observed worst stack depth, bytes *)
  wr_retired : int; (* observed worst retired instructions *)
  wr_runs : int;
}

let wcet ?(json_dir = ".") ?(packets = 64) () =
  let since = Obs.Counters.snapshot () in
  let org = Soundness.org in
  let p = Cycles.pentium in
  (* Verify an image the way the loaders do: exports as entries, data
     and imports as externs, no privileged lint (ring-0 worlds). *)
  let bounds_of (image : Image.t) =
    let data_names =
      List.map (fun (d : Image.data_item) -> d.Image.d_name) image.Image.data
      @ List.map (fun (b : Image.bss_item) -> b.Image.b_name) image.Image.bss
    in
    let externs name =
      List.mem name data_names || List.mem name image.Image.imports
    in
    let report =
      Verify.verify ~org ~entries:image.Image.exports ~externs
        ~region:(0, Soundness.region_hi) ~lint_privileged:false
        ~name:image.Image.name image.Image.text
    in
    report.Verify.r_bounds
  in
  (* One invocation in the oracle world: lay the image data out at
     0x6000, stage the stack as [ret -> halt pad][args...], run to the
     pad's hlt and read the architectural cycle ledger (minus the
     pad's own hlt charge). *)
  let observe (image : Image.t) ~entry ~args ~pokes =
    let text = image.Image.text in
    let n_instrs =
      List.length
        (List.filter (function Asm.I _ -> true | Asm.L _ -> false) text)
    in
    let halt_addr = org + (Instr.size * n_instrs) in
    let prog = text @ [ Asm.L "bench$halt"; Asm.I Instr.Hlt ] in
    let data_syms = Image.layout_data image ~base:0x6000 in
    let extern name =
      List.find_map
        (fun (n, addr, _) -> if n = name then Some addr else None)
        data_syms
    in
    let setup cpu =
      let ds = Cpu.seg_reg cpu Reg.DS in
      let poke_bytes addr bytes =
        Bytes.iteri
          (fun k b ->
            Cpu.write_mem cpu ds ~offset:(addr + k) ~size:1 (Char.code b))
          bytes
      in
      List.iter
        (fun (_, addr, init) ->
          match init with Some bytes -> poke_bytes addr bytes | None -> ())
        data_syms;
      List.iter (fun (addr, bytes) -> poke_bytes addr bytes) pokes;
      let esp = 0x7F00 - (4 * (1 + List.length args)) in
      Cpu.write_mem cpu ds ~offset:esp ~size:4 halt_addr;
      List.iteri
        (fun k arg -> Cpu.write_mem cpu ds ~offset:(esp + 4 + (4 * k)) ~size:4 arg)
        args;
      Cpu.set_reg cpu Reg.ESP esp
    in
    let r = Soundness.measure ~setup ~extern ~entry prog in
    (match r.Soundness.x_stop with
    | Cpu.Halted -> ()
    | _ -> Printf.ksprintf failwith "wcet: %s did not reach the halt pad" entry);
    (* the pad's hlt retires inside the measured window but outside
       the verified routine; take it back out *)
    ( r.Soundness.x_cycles - p.Cycles.hlt,
      r.Soundness.x_stack,
      r.Soundness.x_retired - 1 )
  in
  let row name image ~entry runs =
    let bounds = bounds_of image in
    let obs = List.map (fun (args, pokes) -> observe image ~entry ~args ~pokes) runs in
    let worst f = List.fold_left (fun a o -> max a (f o)) 0 obs in
    let cycles = List.map (fun (c, _, _) -> c) obs in
    {
      wr_name = name;
      wr_bounds = bounds;
      wr_worst = worst (fun (c, _, _) -> c);
      wr_mean =
        float_of_int (List.fold_left ( + ) 0 cycles)
        /. float_of_int (max 1 (List.length cycles));
      wr_stack = worst (fun (_, s, _) -> s);
      wr_retired = worst (fun (_, _, n) -> n);
      wr_runs = List.length obs;
    }
  in
  (* The compiled 4-term filter over a packet stream: the matching
     packet drives the longest path (every term true), the random rest
     exercise the early rejects. *)
  let terms = Filter_expr.canonical 4 in
  let filter_image = Native_compile.image terms in
  let pkt_base = 0x4000 in
  let gen = Pkt_gen.create () in
  let stream =
    Pkt_gen.matching_packet ()
    :: List.init (max 0 (packets - 1)) (fun _ ->
           Pkt_gen.random_packet gen ~match_percent:50)
  in
  let filter_runs =
    List.map
      (fun pkt -> ([ pkt_base ], [ (pkt_base, Packet.to_bytes pkt) ]))
      stream
  in
  let str = Bytes.of_string "palladium\x00" in
  let rows =
    [
      row "cfilter (4 terms)" filter_image ~entry:"filter" filter_runs;
      row "work (64 units)" (Ulib.work_image ~units:64) ~entry:"work"
        [ ([], []) ];
      row "counter bump" Ulib.counter_image ~entry:"bump" [ ([], []) ];
      row "null_fn" Ulib.null_image ~entry:"null_fn" [ ([], []) ];
      row "strrev (9 chars)" Ulib.strrev_image ~entry:"strrev"
        [ ([ 0x5000 ], [ (0x5000, str) ]) ];
    ]
  in
  let cell_bound = function
    | Vcost.Finite v -> string_of_int v
    | Vcost.Unbounded -> "unbounded"
  in
  let tightness r =
    match r.wr_bounds.Vcost.b_wcet_cycles with
    | Vcost.Finite w when r.wr_worst > 0 ->
        Some (float_of_int w /. float_of_int r.wr_worst)
    | _ -> None
  in
  Table.print
    ~title:
      (Printf.sprintf
         "Certified WCET vs observed worst case (%d filter packets)"
         (List.length stream))
    ~headers:
      [ "extension"; "WCET"; "obs worst"; "obs mean"; "static/obs"; "stack"; "obs" ]
    (List.map
       (fun r ->
         [
           r.wr_name;
           cell_bound r.wr_bounds.Vcost.b_wcet_cycles;
           string_of_int r.wr_worst;
           Printf.sprintf "%.1f" r.wr_mean;
           (match tightness r with
           | Some t -> Printf.sprintf "%.2fx" t
           | None -> "-");
           cell_bound r.wr_bounds.Vcost.b_max_stack_bytes;
           string_of_int r.wr_stack;
         ])
       rows);
  (* What the bound buys at admission time: the web-server model with
     a deadline sheds requests whose certified worst-case completion
     already misses it, instead of queueing them to time out. *)
  let handler_usec =
    Cgi_model.request_usec ~invocation:Cgi_model.Libcgi_protected ~bytes:2048
      ~protected_call_usec:(Cycles.cycles_to_usec 144)
  in
  let deadline = 8.0 *. handler_usec in
  let total = 400 in
  let no_adm =
    Server.run ~concurrency:30 ~total ~deadline_usec:deadline
      ~invocation:Cgi_model.Libcgi_protected ~bytes:2048
      ~protected_call_usec:(Cycles.cycles_to_usec 144) ()
  in
  let adm =
    Server.run ~concurrency:30 ~total ~deadline_usec:deadline
      ~handler_wcet_usec:handler_usec
      ~invocation:Cgi_model.Libcgi_protected ~bytes:2048
      ~protected_call_usec:(Cycles.cycles_to_usec 144) ()
  in
  Table.print
    ~title:
      (Printf.sprintf
         "WCET admission control (deadline %.0f usec, handler WCET %.1f usec)"
         deadline handler_usec)
    ~headers:[ "policy"; "completed"; "shed"; "throughput (rps)" ]
    [
      [
        "no admission";
        string_of_int no_adm.Server.requests;
        string_of_int no_adm.Server.shed;
        Printf.sprintf "%.0f" no_adm.Server.throughput_rps;
      ];
      [
        "WCET admission";
        string_of_int adm.Server.requests;
        string_of_int adm.Server.shed;
        Printf.sprintf "%.0f" adm.Server.throughput_rps;
      ];
    ];
  let h = Obs.Histogram.create () in
  List.iter
    (fun (args, pokes) ->
      let c, _, _ = observe filter_image ~entry:"filter" ~args ~pokes in
      Obs.Histogram.observe h c)
    filter_runs;
  let open Obs.Json in
  let bound_json = function
    | Vcost.Finite v -> Int v
    | Vcost.Unbounded -> Null
  in
  emit ~json_dir ~name:"wcet" ~since
    ~histogram:("filter_cycles_per_packet", h)
    [
      ( "rows",
        List
          (List.map
             (fun r ->
               Obj
                 [
                   ("name", String r.wr_name);
                   ("wcet_cycles", bound_json r.wr_bounds.Vcost.b_wcet_cycles);
                   ( "max_stack_bytes",
                     bound_json r.wr_bounds.Vcost.b_max_stack_bytes );
                   ("max_instrs", bound_json r.wr_bounds.Vcost.b_max_instrs);
                   ("observed_worst_cycles", Int r.wr_worst);
                   ("observed_mean_cycles", Float r.wr_mean);
                   ("observed_worst_stack", Int r.wr_stack);
                   ("observed_worst_instrs", Int r.wr_retired);
                   ("runs", Int r.wr_runs);
                   ( "tightness",
                     match tightness r with Some t -> Float t | None -> Null );
                 ])
             rows) );
      ( "admission",
        Obj
          [
            ("deadline_usec", Float deadline);
            ("handler_wcet_usec", Float handler_usec);
            ("total", Int total);
            ( "no_admission",
              Obj
                [
                  ("completed", Int no_adm.Server.requests);
                  ("shed", Int no_adm.Server.shed);
                ] );
            ( "wcet_admission",
              Obj
                [
                  ("completed", Int adm.Server.requests);
                  ("shed", Int adm.Server.shed);
                ] );
          ] );
    ];
  (* Pass conditions. *)
  List.iter
    (fun r ->
      (match r.wr_bounds.Vcost.b_wcet_cycles with
      | Vcost.Finite w when r.wr_worst > w ->
          Printf.ksprintf failwith
            "wcet: %s observed %d cycles above its certified WCET %d"
            r.wr_name r.wr_worst w
      | _ -> ());
      (match r.wr_bounds.Vcost.b_max_stack_bytes with
      | Vcost.Finite s when r.wr_stack > s ->
          Printf.ksprintf failwith
            "wcet: %s observed stack %d bytes above its certified bound %d"
            r.wr_name r.wr_stack s
      | _ -> ());
      match r.wr_bounds.Vcost.b_max_instrs with
      | Vcost.Finite n when r.wr_retired > n ->
          Printf.ksprintf failwith
            "wcet: %s retired %d instructions above its certified bound %d"
            r.wr_name r.wr_retired n
      | _ -> ())
    rows;
  (match rows with
  | filter_row :: _ -> (
      match tightness filter_row with
      | Some t when t <= 2.0 -> ()
      | Some t ->
          Printf.ksprintf failwith
            "wcet: filter tightness %.2fx exceeds the 2x bar" t
      | None -> failwith "wcet: the 4-term filter must be certified finite")
  | [] -> ());
  if adm.Server.shed = 0 then
    failwith "wcet: admission control shed nothing under an impossible deadline";
  if no_adm.Server.shed <> 0 then
    failwith "wcet: shed requests without a handler WCET configured";
  if adm.Server.requests + adm.Server.shed <> total then
    Printf.ksprintf failwith "wcet: %d completed + %d shed <> %d total"
      adm.Server.requests adm.Server.shed total;
  rows

(* --- Domain-parallel fleet sweep ------------------------------------- *)

(* One isolated world's workload, deterministic in the world index:
   boot, warm up, drive a protected-null-call sweep (per-call stub
   cost into fleet.call_cycles), then serve a LibCGI-protected
   web-server run (request latency into fleet.request_usec).  Worlds
   deliberately differ a little (calls/requests derived from [i]) so
   the per-world determinism comparison cannot pass by accident.
   Returns (calls, requests) completed. *)
let fleet_world ~calls ~requests i =
  let calls = calls + (i mod 3) in
  let requests = requests + (32 * (i mod 4)) in
  let w = Palladium.boot () in
  let app = Palladium.create_app w ~name:(Printf.sprintf "fleet%d" i) in
  let ext = User_ext.seg_dlopen app Ulib.null_image in
  let prepare = User_ext.seg_dlsym app ext "null_fn" in
  ignore (protected_null_call_marks app prepare) (* warm TLB and pages *);
  let h_call = Obs.Histogram.get_or_create "fleet.call_cycles" in
  for _ = 1 to calls do
    let marks = protected_null_call_marks app prepare in
    let setup = find_mark marks ".setup" in
    let body = find_mark marks ".body" in
    let return = find_mark marks ".return" in
    let done_ = find_mark marks "rt.done" in
    Obs.Histogram.observe h_call (done_ - setup - (return - body))
  done;
  let h_req = Obs.Histogram.get_or_create "fleet.request_usec" in
  let stats =
    Server.run ~concurrency:16 ~total:requests ~latency:h_req
      ~invocation:Cgi_model.Libcgi_protected ~bytes:2048
      ~protected_call_usec:(Cycles.cycles_to_usec 144) ()
  in
  Palladium.teardown w;
  (calls, stats.Server.requests)

type parallel_outcome = {
  par_domains : int; (* used: the fleet clamps to the host's cores *)
  par_worlds : int;
  par_serial_sec : float;
  par_parallel_sec : float;
  par_speedup : float;
  par_deterministic : bool;
  par_serial_requests : int;
  par_merged_requests : int; (* merged fleet.request_usec count *)
}

let parallel ?(json_dir = ".") ?(domains = 4) ?worlds ?(calls = 2000)
    ?(requests = 20000) () =
  let worlds = match worlds with Some w -> w | None -> max domains 4 in
  let f = fleet_world ~calls ~requests in
  (* identical seeds, serial then sharded over domains *)
  let serial = Fleet.run ~domains:1 ~worlds f in
  let par = Fleet.run ~domains ~worlds f in
  let div = Fleet.divergences serial par in
  let speedup =
    Fleet.speedup ~serial:(Fleet.elapsed serial) ~parallel:(Fleet.elapsed par)
  in
  let sum_requests fl =
    List.fold_left
      (fun acc r -> acc + snd r.Fleet.wr_value)
      0 (Fleet.results fl)
  in
  let merged = Fleet.merged par in
  let merged_req =
    match Obs.Sink.find_histogram merged "fleet.request_usec" with
    | Some h -> Obs.Histogram.count h
    | None -> 0
  in
  Table.print
    ~title:
      (Printf.sprintf
         "Fleet: %d isolated worlds, serial vs %d domains (%d requested, %d \
          cores)"
         worlds par.Fleet.f_domains domains
         (Domain.recommended_domain_count ()))
    ~headers:[ "World"; "Calls"; "Requests"; "Elapsed (s)" ]
    (List.map
       (fun r ->
         let calls, reqs = r.Fleet.wr_value in
         [
           Table.cell_int r.Fleet.wr_world;
           Table.cell_int calls;
           Table.cell_int reqs;
           Printf.sprintf "%.3f" r.Fleet.wr_elapsed;
         ])
       (Fleet.results par));
  Printf.printf
    "serial %.3fs, parallel %.3fs -> speedup %.2fx; per-world results %s\n"
    (Fleet.elapsed serial) (Fleet.elapsed par) speedup
    (if div = [] then "bit-identical to the serial run"
     else "DIVERGED: " ^ String.concat ", "
            (List.map (fun (w, d) -> Printf.sprintf "world %d (%s)" w d) div));
  let outcome =
    {
      par_domains = par.Fleet.f_domains;
      par_worlds = worlds;
      par_serial_sec = Fleet.elapsed serial;
      par_parallel_sec = Fleet.elapsed par;
      par_speedup = speedup;
      par_deterministic = div = [];
      par_serial_requests = sum_requests serial;
      par_merged_requests = merged_req;
    }
  in
  (* Emit under the merged sink so the artifact's counter blocks carry
     the fleet totals (the main sink saw none of the worlds' events);
     the empty [since] makes the delta the full merged footprint. *)
  Obs.Sink.with_sink merged (fun () ->
      let open Obs.Json in
      let h_req =
        match Obs.Sink.find_histogram merged "fleet.request_usec" with
        | Some h -> h
        | None -> Obs.Histogram.create ()
      in
      emit ~json_dir ~name:"parallel" ~since:[]
        ~histogram:("fleet_request_usec", h_req)
        [
          ("domains_requested", Int domains);
          ("domains", Int par.Fleet.f_domains);
          ("worlds", Int worlds);
          ("cores", Int (Domain.recommended_domain_count ()));
          ( "engine",
            String (Bexec.engine_to_string (Bexec.get_default_engine ())) );
          (* fleet-total simulated instructions over parallel wall
             time: how fast the fleet simulates, not how fast the
             simulated machines are *)
          ( "simulated_mips",
            Float
              (let instrs =
                 Obs.Sink.counter_value merged "machine.instructions"
               in
               if outcome.par_parallel_sec > 0. then
                 float_of_int instrs /. outcome.par_parallel_sec /. 1e6
               else 0.) );
          ( "serial",
            Obj
              [
                ("elapsed_sec", Float outcome.par_serial_sec);
                ("requests", Int outcome.par_serial_requests);
              ] );
          ( "parallel",
            Obj
              [
                ("elapsed_sec", Float outcome.par_parallel_sec);
                ("requests", Int (sum_requests par));
              ] );
          ("speedup", Float speedup);
          ("deterministic", Bool outcome.par_deterministic);
          ("merged_request_count", Int merged_req);
          ( "per_world",
            List
              (List.map
                 (fun r ->
                   let calls, reqs = r.Fleet.wr_value in
                   Obj
                     [
                       ("world", Int r.Fleet.wr_world);
                       ("calls", Int calls);
                       ("requests", Int reqs);
                       ("elapsed_sec", Float r.Fleet.wr_elapsed);
                     ])
                 (Fleet.results par)) );
        ]);
  outcome

(* --- Basic-block engine speedup --------------------------------------- *)

(* The compute-heavy protected-call sweep under both execution engines:
   the architectural totals (cycle count, instruction count) must be
   identical — the block engine is an implementation detail, not a
   model change — and the wall-clock ratio is the engine's speedup.
   Simulated MIPS is retired simulated instructions per wall-clock
   second. *)

type engine_sample = {
  es_sec : float;
  es_cycles : int;
  es_instrs : int;
}

let mips s = float_of_int s.es_instrs /. max 1e-9 s.es_sec /. 1e6

type fastpath_row = { fp_interp : engine_sample; fp_blocks : engine_sample }

let fp_speedup r = r.fp_interp.es_sec /. max 1e-9 r.fp_blocks.es_sec

let fp_identical r =
  r.fp_interp.es_cycles = r.fp_blocks.es_cycles
  && r.fp_interp.es_instrs = r.fp_blocks.es_instrs

let with_engine engine f =
  let saved = Bexec.get_default_engine () in
  Bexec.set_default_engine engine;
  Fun.protect ~finally:(fun () -> Bexec.set_default_engine saved) f

(* The checksum rounds of the compute-heavy protected-call sweep:
   ~32k simulated instructions per call, so instruction dispatch (not
   the crossing or the kernel's OCaml bookkeeping) dominates. *)
let mix_rounds = 4096

(* Warm protected calls into [image]'s [export] through the full
   stub/gate path.  With the mix kernel the extension is compute-bound,
   so the engine's dispatch, not the crossing, sets the host time. *)
let fastpath_calls_sample ?hist engine ~image ~export ~calls =
  with_engine engine @@ fun () ->
  let _w, app = boot_app () in
  let ext = User_ext.seg_dlopen app image in
  let prepare = User_ext.seg_dlsym app ext export in
  (match User_ext.call app ~prepare ~arg:1 (* warm TLB and pages *) with
  | Ok _ -> ()
  | Error e -> Fmt.failwith "fastpath warm call: %a" User_ext.pp_call_error e);
  let cpu = Kernel.cpu (User_ext.kernel app) in
  let c0 = Cpu.cycles cpu and i0 = Cpu.instructions cpu in
  let t0 = Sys.time () in
  for _ = 1 to calls do
    let before = Cpu.cycles cpu in
    (match User_ext.call app ~prepare ~arg:1 with
    | Ok _ -> ()
    | Error e -> Fmt.failwith "fastpath call: %a" User_ext.pp_call_error e);
    match hist with
    | Some h -> Obs.Histogram.observe h (Cpu.cycles cpu - before)
    | None -> ()
  done;
  { es_sec = Sys.time () -. t0; es_cycles = Cpu.cycles cpu - c0;
    es_instrs = Cpu.instructions cpu - i0 }

let fastpath ?(json_dir = ".") ?(calls = 300) () =
  let since = Obs.Counters.snapshot () in
  let mix = Ulib.mix_image ~rounds:mix_rounds in
  let h_call = Obs.Histogram.create () in
  let pc_interp =
    fastpath_calls_sample Cpu.Interp ~image:mix ~export:"mix" ~calls
  in
  let pc_blocks =
    fastpath_calls_sample ~hist:h_call Cpu.Blocks ~image:mix ~export:"mix"
      ~calls
  in
  let pc = { fp_interp = pc_interp; fp_blocks = pc_blocks } in
  Printf.printf
    "%-20s %12s %12s %9s %10s %10s %s\n" "fastpath" "interp(s)" "blocks(s)"
    "speedup" "interpMIPS" "blocksMIPS" "identical";
  Printf.printf "%-20s %12.4f %12.4f %8.2fx %10.2f %10.2f %s\n"
    "protected-call" pc.fp_interp.es_sec pc.fp_blocks.es_sec (fp_speedup pc)
    (mips pc.fp_interp) (mips pc.fp_blocks)
    (if fp_identical pc then "yes" else "NO");
  let open Obs.Json in
  let sample_obj s =
    Obj
      [
        ("elapsed_sec", Float s.es_sec);
        ("cycles", Int s.es_cycles);
        ("instructions", Int s.es_instrs);
        ("simulated_mips", Float (mips s));
      ]
  in
  emit ~json_dir ~name:"fastpath" ~since
    ~histogram:("protected_call_cycles", h_call)
    [
      ( "rows",
        List
          [
            Obj
              [
                ("workload", String "protected-call");
                ("interp", sample_obj pc.fp_interp);
                ("blocks", sample_obj pc.fp_blocks);
                ("speedup", Float (fp_speedup pc));
                ("identical", Bool (fp_identical pc));
              ];
          ] );
    ];
  pc

(* --- Driver ------------------------------------------------------------ *)

(* Host-time floors of the parallel and fastpath subcommands.  A
   wall-clock ratio only means something on an idle host with a core
   per domain and a release build, so these are not tier-1 tests: the
   subcommand runs three times and exits 1 when the median ratio is
   below the floor. *)
let gate_runs = 3

let median xs = List.nth (List.sort compare xs) (List.length xs / 2)

let check_floor ~what ~floor ratios =
  let m = median ratios in
  Printf.printf "%s: median of %d runs %.2fx (floor %.1fx)\n%!" what
    (List.length ratios) m floor;
  if m < floor then begin
    Printf.eprintf "bench: %s median %.2fx below the %.1fx floor\n%!" what m
      floor;
    exit 1
  end

let value_flags = [ "--domains"; "--worlds"; "--specimens"; "--seed"; "--packets" ]

let rec flag name = function
  | [] -> None
  | f :: v :: _ when f = name -> int_of_string_opt v
  | _ :: rest -> flag name rest

(* The subcommands in run order; the value flags tune soundness, wcet
   and parallel. *)
let subcommands args =
  let flag name = flag name args in
  let cycles = ref 144 in
  [
    ("table1", fun () -> cycles := table1 ());
    ("table2", fun () -> table2 ());
    ( "table3",
      fun () -> table3 ~protected_call_usec:(Cycles.cycles_to_usec !cycles) () );
    ("figure7", fun () -> figure7 ());
    ("micro", fun () -> micro ());
    ("ipc", fun () -> ipc_cmp ~palladium_cycles:!cycles ());
    ("ablation", fun () -> ablation ());
    ("sfi", fun () -> sfi ());
    ("backends", fun () -> backends ());
    ( "fastpath",
      fun () ->
        check_floor ~what:"fastpath protected-call block-engine speedup"
          ~floor:3.0
          (List.init gate_runs (fun _ -> fp_speedup (fastpath ()))) );
    ( "soundness",
      fun () ->
        ignore
          (soundness ?specimens:(flag "--specimens") ?seed:(flag "--seed") ()) );
    ("wcet", fun () -> ignore (wcet ?packets:(flag "--packets") ()));
    ( "parallel",
      fun () ->
        let runs =
          List.init gate_runs (fun _ ->
              parallel ?domains:(flag "--domains") ?worlds:(flag "--worlds") ())
        in
        (* a speedup needs at least two cores to run on *)
        if (List.hd runs).par_domains >= 2 then
          check_floor ~what:"parallel fleet speedup" ~floor:1.3
            (List.map (fun o -> o.par_speedup) runs) );
  ]

let subcommand_names = List.map fst (subcommands [])

(* The first argument that is neither a subcommand nor a value flag
   followed by its value. *)
let rec unknown_arg = function
  | [] -> None
  | f :: _ :: rest when List.mem f value_flags -> unknown_arg rest
  | a :: rest when List.mem a subcommand_names -> unknown_arg rest
  | a :: _ -> Some a

(* Run the requested subset: everything but parallel, which spawns
   domains, when [args] names no subcommand.  Every argument is checked
   before anything runs. *)
let run_main args =
  Option.iter
    (fun a ->
      Printf.eprintf "bench: unknown argument %S\nsubcommands: %s\nflags: %s N\n"
        a (String.concat " " subcommand_names) (String.concat " N, " value_flags);
      exit 2)
    (unknown_arg args);
  List.iter
    (fun (name, run) ->
      if List.mem name args || (args = [] && name <> "parallel") then run ())
    (subcommands args)
