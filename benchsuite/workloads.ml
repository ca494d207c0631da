(* The suite's five workloads.  Each is a closed loop driven from one
   process through the public functions of the simulator's libraries,
   generated from a seed, set up once (boot, load, warm-up) and then
   run as fixed-size timed repeats.

   Inputs are drawn by seed but their composition is fixed (equal
   backend shares, fixed packet-class and body-size counts), so the
   simulated cost of a repeat is the same at every seed and only the
   order and the bytes change.  An op's host latency is timed with the
   monotonic clock; ops fall into classes (backend, packet class, body
   size) whose costs differ, and the reported latency is the
   class-weighted median, which stays inside a class instead of
   landing on the boundary between two. *)

type cfg = { seed : int; smoke : bool }

let mhz = float_of_int Cycles.mhz

let pinned_boot backend =
  Palladium.boot ~verify_policy:Verify.Warn ~audit_policy:Audit.Engine.Warn
    ~budget_policy:Vcost.Off ~backend ()

(* --- Per-op recording ---------------------------------------------- *)

type recorder = {
  lat : int array array; (* per class, ns *)
  fill : int array;
  cls_cycles : int array; (* per class *)
  mutable ops : int;
  mutable failed : int;
  mutable cycles : int;
}

let recorder ~classes ~capacity =
  {
    lat = Array.init classes (fun _ -> Array.make capacity 0);
    fill = Array.make classes 0;
    cls_cycles = Array.make classes 0;
    ops = 0;
    failed = 0;
    cycles = 0;
  }

let reset r =
  Array.fill r.fill 0 (Array.length r.fill) 0;
  Array.fill r.cls_cycles 0 (Array.length r.cls_cycles) 0;
  r.ops <- 0;
  r.failed <- 0;
  r.cycles <- 0

let record r ~cls ~ns ~ok ~cycles =
  let i = r.fill.(cls) in
  r.lat.(cls).(i) <- ns;
  r.fill.(cls) <- i + 1;
  r.cls_cycles.(cls) <- r.cls_cycles.(cls) + cycles;
  r.ops <- r.ops + 1;
  if not ok then r.failed <- r.failed + 1;
  r.cycles <- r.cycles + cycles

(* Fold a per-world recorder into the repeat's recorder. *)
let absorb ~into r =
  Array.iteri
    (fun c n ->
      Array.blit r.lat.(c) 0 into.lat.(c) into.fill.(c) n;
      into.fill.(c) <- into.fill.(c) + n;
      into.cls_cycles.(c) <- into.cls_cycles.(c) + r.cls_cycles.(c))
    r.fill;
  into.ops <- into.ops + r.ops;
  into.failed <- into.failed + r.failed;
  into.cycles <- into.cycles + r.cycles

let weighted_median_ns r =
  if r.ops = 0 then nan
  else
    Array.to_list r.fill
    |> List.mapi (fun c n ->
           if n = 0 then 0.
           else
             float_of_int n /. float_of_int r.ops
             *. Quantiles.median_prefix r.lat.(c) n)
    |> List.fold_left ( +. ) 0.

let p99_ns r =
  let all = Array.concat (List.mapi (fun c n -> Array.sub r.lat.(c) 0 n)
                            (Array.to_list r.fill)) in
  Array.sort Int.compare all;
  Quantiles.percentile_sorted all 99.

(* --- One timed repeat ------------------------------------------------ *)

type sample = {
  ops : int;
  failed : int;
  wall_s : float;
  cycles : int;
  alloc_words : float;
  p50_ns : float;
  p99_ns : float;
  minor_gcs : int;
  major_gcs : int;
  promoted_words : float;
  counters : (string * int) list; (* event-counter deltas *)
}

(* Allocation and promotion of the domain running [f]: OCaml 5 counts
   both per domain, so a fleet measures them inside each world. *)
let domain_alloc f =
  let p0 = (Gc.quick_stat ()).Gc.promoted_words in
  let w0 = Gc.minor_words () in
  let v = f () in
  let w1 = Gc.minor_words () in
  let p1 = (Gc.quick_stat ()).Gc.promoted_words in
  (v, w1 -. w0, p1 -. p0)

(* Time [body], which records its ops into [r].  A fleet body returns
   the allocated and promoted words and the counter deltas its worlds
   measured; [None] means the calling domain did all the work. *)
let timed r body =
  reset r;
  let since = Obs.Counters.snapshot () in
  let g0 = Gc.quick_stat () in
  let t0 = Tracer.now_ns () in
  let own, words, promoted = domain_alloc body in
  let t1 = Tracer.now_ns () in
  let g1 = Gc.quick_stat () in
  let words, promoted, counters =
    match own with
    | Some (w, p, c) -> (w, p, c)
    | None -> (words, promoted, Obs.Counters.delta ~since)
  in
  {
    ops = r.ops;
    failed = r.failed;
    wall_s = float_of_int (t1 - t0) /. 1e9;
    cycles = r.cycles;
    alloc_words = words;
    p50_ns = weighted_median_ns r;
    p99_ns = p99_ns r;
    minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
    major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
    promoted_words = promoted;
    counters;
  }

(* [setup cfg] boots, loads and warms a workload up and returns an
   instance: [repeat tr] runs one fixed-size timed repeat, tracing into
   [tr]; after traced repeats, [layers tr] gives the per-layer metrics
   tied to this workload, from its own spans and samples. *)
type inst = { repeat : Tracer.t -> sample; layers : Tracer.t -> Metric.t list }

type t = { name : string; setup : cfg -> inst }

let m = Metric.make

let call_span = function Pbackend.Mpk -> Tracer.call_mpk | _ -> Tracer.call_seg

let median_us tr kind = Tracer.median_ns tr kind /. 1e3

(* --- Seeded input helpers ------------------------------------------- *)

let rng cfg salt = Random.State.make [| cfg.seed; salt |]

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* [counts.(c)] copies of class [c], in seeded order. *)
let composed st counts =
  shuffle st
    (Array.concat (Array.to_list (Array.mapi (fun c n -> Array.make n c) counts)))

let printable st n =
  Bytes.init n (fun _ -> Char.chr (0x21 + Random.State.int st 94))

let reversed b =
  let n = Bytes.length b in
  Bytes.init n (fun i -> Bytes.get b (n - 1 - i))

(* Backend-generic application with the named images loaded. *)
let app_world ~backend ~name =
  let w = pinned_boot backend in
  let app = Palladium.create_backend_app ~backend w ~name in
  (w, app)

let resolve app image fn =
  let ext = Pbackend.load app image in
  (ext, Pbackend.resolve app ext fn)

let warm n f =
  for i = 0 to n - 1 do
    ignore (f i)
  done

(* [Cpu.marks] keeps every stub mark of every call made since it was
   last cleared.  The suite clears it before each repeat (each block in
   crossing), so memory and GC work are the same in every repeat
   instead of growing with the length of the run. *)
let clear_marks cpus = List.iter Cpu.clear_marks cpus

let app_cpu app = Kernel.cpu (Pbackend.kernel_of app)

(* --- crossing ---------------------------------------------------------

   Table 1's protected null call, warm, in seeded-order blocks of 1000
   alternating a seg world and an mpk world.  The boundary (stubs, far
   transfers, descriptor loads, the kernel's accounting) does almost all
   the work, and both extension hosts are covered. *)

let crossing =
  let setup cfg =
    let block = if cfg.smoke then 10 else 1000 in
    let blocks = if cfg.smoke then 4 else 40 in
    let backends = [| Pbackend.Segmentation; Pbackend.Mpk |] in
    let worlds =
      Array.map
        (fun backend ->
          let _w, app = app_world ~backend ~name:"crossing" in
          let _, prepare = resolve app Ulib.null_image "null_fn" in
          (app, prepare))
        backends
    in
    let order = composed (rng cfg 1) [| blocks / 2; blocks / 2 |] in
    warm (if cfg.smoke then 20 else 30_000) (fun i ->
        let app, prepare = worlds.(i land 1) in
        Pbackend.call app ~prepare ~arg:1);
    let cpus = Array.map (fun (app, _) -> app_cpu app) worlds in
    let r = recorder ~classes:2 ~capacity:(block * blocks) in
    let repeat tr =
      timed r (fun () ->
          for b = 0 to blocks - 1 do
            let cls = order.(b) in
            let app, prepare = worlds.(cls) in
            let span = call_span backends.(cls) in
            Cpu.clear_marks cpus.(cls);
            for _ = 1 to block do
              let t0 = Tracer.now_ns () in
              Tracer.enter tr Tracer.op;
              Tracer.enter tr span;
              let res = Pbackend.call app ~prepare ~arg:1 in
              Tracer.leave tr;
              Tracer.leave tr;
              let t1 = Tracer.now_ns () in
              match res with
              | Ok (_, c) -> record r ~cls ~ns:(t1 - t0) ~ok:true ~cycles:c
              | Error _ -> record r ~cls ~ns:(t1 - t0) ~ok:false ~cycles:0
            done
          done;
          None)
    in
    (* host time of one call per backend, and its simulated cycles in
       the last repeat *)
    let layers tr =
      List.concat
        (List.mapi
           (fun cls backend ->
             let b = Pbackend.kind_name backend in
             [
               m ("core.call_ns." ^ b) "ns" [ Tracer.median_ns tr (call_span backend) ];
               m ("core.call_cycles." ^ b) "cycles"
                 [ float_of_int r.cls_cycles.(cls) /. float_of_int r.fill.(cls) ];
             ])
           (Array.to_list backends))
    in
    { repeat; layers }
  in
  { name = "crossing"; setup }

(* --- compute ----------------------------------------------------------

   Protected calls into a register-only kernel of about 32k
   instructions.  The block engine and the per-instruction counters do
   the work and the boundary is under 1%, so a change to the boundary
   should not move this workload. *)

let mix_rounds = 4096

(* OCaml reference of [Ulib.mix_image]'s 8-op loop on 32-bit words. *)
let mix_reference ~rounds arg =
  let m = 0xFFFF_FFFF in
  let eax = ref (arg land m) and edx = ref 0x9E37_79B9 in
  for _ = 1 to rounds do
    eax := (!eax + !edx) land m;
    edx := !edx lxor !eax;
    eax := (!eax lsl 3) land m;
    edx := !edx lsr 1;
    eax := (!eax * 0x0101_0101) land m;
    edx := (!edx + 0x1234_5677) land m
  done;
  !eax

let compute =
  let setup cfg =
    let rounds = if cfg.smoke then 64 else mix_rounds in
    let calls = if cfg.smoke then 8 else 500 in
    let _w, app = app_world ~backend:Pbackend.Segmentation ~name:"compute" in
    let _, prepare = resolve app (Ulib.mix_image ~rounds) "mix" in
    let st = rng cfg 2 in
    let args = Array.init calls (fun _ -> Random.State.bits st land 0xFFFF_FFFF) in
    let expected = Array.map (mix_reference ~rounds) args in
    warm (if cfg.smoke then 4 else 500) (fun i ->
        Pbackend.call app ~prepare ~arg:args.(i mod calls));
    let r = recorder ~classes:1 ~capacity:calls in
    let repeat tr =
      clear_marks [ app_cpu app ];
      timed r (fun () ->
          for i = 0 to calls - 1 do
            let t0 = Tracer.now_ns () in
            Tracer.enter tr Tracer.op;
            Tracer.enter tr Tracer.call_seg;
            let res = Pbackend.call app ~prepare ~arg:args.(i) in
            Tracer.leave tr;
            Tracer.leave tr;
            let t1 = Tracer.now_ns () in
            match res with
            | Ok (v, c) ->
                record r ~cls:0 ~ns:(t1 - t0)
                  ~ok:(v land 0xFFFF_FFFF = expected.(i))
                  ~cycles:c
            | Error _ -> record r ~cls:0 ~ns:(t1 - t0) ~ok:false ~cycles:0
          done;
          None)
    in
    { repeat; layers = (fun _ -> []) }
  in
  { name = "compute"; setup }

(* --- filter -----------------------------------------------------------

   Figure 7: each packet goes through the compiled 4-term filter as a
   kernel extension (copy into the shared area, ring-1 invoke) and
   through the BPF interpreter module.  Covers the kernel-level
   boundary and the data-side MMU and segment checks, with host writes
   of packets beside extension reads. *)

let filter_terms = Filter_expr.canonical 4

(* One packet of class [c] with seeded free fields; the class fixes
   which filter term rejects it, and so its simulated cost. *)
let packet st c =
  let pkt =
    match c with
    | 0 -> Pkt_gen.matching_packet ()
    | 1 -> Packet.arp ()
    | 2 -> Packet.tcp ~src_port:(1024 + Random.State.int st 60000) ()
    | 3 ->
        Packet.udp
          ~src:(Packet.ip 192 168 (Random.State.int st 256) (Random.State.int st 256))
          ~dst_port:(Random.State.int st 1024) ()
    | _ ->
        Packet.udp ~src:Pkt_gen.target_src ~dst:Pkt_gen.target_dst
          ~src_port:Pkt_gen.target_src_port
          ~dst_port:(7778 + Random.State.int st 100) ()
  in
  Packet.to_bytes pkt

(* 256 distinct packets: 64 matching the canonical target, 48 each of
   ARP, TCP, UDP from a foreign source and UDP to another port. *)
let packet_counts = [| 64; 48; 48; 48; 48 |]

let packet_set st =
  let classes = composed st packet_counts in
  (classes, Array.map (packet st) classes)

let filter =
  let setup cfg =
    let rounds = if cfg.smoke then 1 else 20 in
    let w = pinned_boot Pbackend.Segmentation in
    let kernel = Palladium.kernel w in
    let task = Kernel.create_task kernel ~name:"filter" in
    let native = Native_compile.load (Palladium.create_kernel_segment w) filter_terms in
    let interp = Bpf_asm_interp.load kernel in
    let prog = Filter_expr.to_bpf_tcpdump filter_terms in
    Bpf_asm_interp.set_program interp prog;
    let classes, pkts = packet_set (rng cfg 3) in
    let expected = Array.map (fun packet -> Bpf_vm.accepts prog ~packet) pkts in
    let n = Array.length pkts in
    let native_cycles = ref 0 and interp_cycles = ref 0 in
    let one tr r i =
      let packet = pkts.(i) in
      let t0 = Tracer.now_ns () in
      Tracer.enter tr Tracer.op;
      Tracer.enter tr Tracer.kext_invoke;
      let res = Native_compile.run native task ~packet in
      Tracer.leave tr;
      Tracer.enter tr Tracer.set_packet;
      Bpf_asm_interp.set_packet interp packet;
      Tracer.leave tr;
      Tracer.enter tr Tracer.interp_run;
      let bv, bc = Bpf_asm_interp.run interp task in
      Tracer.leave tr;
      Tracer.leave tr;
      let t1 = Tracer.now_ns () in
      let cls = classes.(i) and ns = t1 - t0 and accept = expected.(i) in
      interp_cycles := !interp_cycles + bc;
      match res with
      | Ok (nv, nc) ->
          native_cycles := !native_cycles + nc;
          record r ~cls ~ns ~ok:(nv = 1 = accept && bv <> 0 = accept) ~cycles:(nc + bc)
      | Error _ -> record r ~cls ~ns ~ok:false ~cycles:bc
    in
    let r = recorder ~classes:(Array.length packet_counts) ~capacity:(rounds * n) in
    for _ = 1 to if cfg.smoke then 1 else 20 do
      reset r;
      for i = 0 to n - 1 do
        one Tracer.off r i
      done
    done;
    let repeat tr =
      clear_marks [ Palladium.cpu w ];
      timed r (fun () ->
          native_cycles := 0;
          interp_cycles := 0;
          for _ = 1 to rounds do
            for i = 0 to n - 1 do
              one tr r i
            done
          done;
          None)
    in
    (* host time of each engine's call, and the simulated cycles per
       packet of each engine in the last repeat *)
    let layers tr =
      let per_pkt c = float_of_int !c /. float_of_int r.ops in
      [
        m "core.kext_invoke_ns" "ns" [ Tracer.median_ns tr Tracer.kext_invoke ];
        m "bpf.interp_run_ns" "ns" [ Tracer.median_ns tr Tracer.interp_run ];
        m "bpf.native_cycles_per_pkt" "cycles" [ per_pkt native_cycles ];
        m "bpf.interp_cycles_per_pkt" "cycles" [ per_pkt interp_cycles ];
      ]
    in
    { repeat; layers }
  in
  { name = "filter"; setup }

(* --- churn ------------------------------------------------------------

   World lifecycles: boot (backend by seed), create an application, load
   null, strrev and the 4-term filter, call each once, make one
   contained rogue store, tear down.  The write side of protection
   state: descriptor-table and page-table mutation, verify, audit, stub
   generation, cold TLB and block cache.  A cache added for crossing
   pays its fill cost here. *)

let sentinel = 0x5eed

let churn =
  let setup cfg =
    let lifecycles = if cfg.smoke then 4 else 400 in
    let filter_image = Native_compile.image filter_terms in
    let prog = Filter_expr.to_bpf_tcpdump filter_terms in
    let st = rng cfg 4 in
    let backends = composed st [| lifecycles / 2; lifecycles / 2 |] in
    let word = printable st 32 in
    let word_nul = Bytes.cat word (Bytes.make 1 '\000') in
    let word_rev = reversed word in
    (* alternate a matching and a rejected packet, so every repeat has
       the same filter cost *)
    let pkts = [| packet st 0; packet st 3 |] in
    let verdicts = Array.map (fun packet -> Bpf_vm.accepts prog ~packet) pkts in
    let lifecycle tr i =
      let backend =
        if backends.(i) = 0 then Pbackend.Segmentation else Pbackend.Mpk
      in
      let ok = ref true in
      let check b = if not b then ok := false in
      let call ?(span = call_span backend) app ~prepare ~arg =
        Tracer.enter tr span;
        let res = Pbackend.call app ~prepare ~arg in
        Tracer.leave tr;
        res
      in
      let load app image fn =
        Tracer.enter tr Tracer.load;
        let ext, prepare = resolve app image fn in
        Tracer.leave tr;
        (ext, prepare)
      in
      Tracer.enter tr Tracer.boot;
      let w = pinned_boot backend in
      Tracer.leave tr;
      Tracer.enter tr Tracer.create_app;
      let app = Palladium.create_backend_app ~backend w ~name:"churn" in
      Tracer.leave tr;
      let _, null_prep = load app Ulib.null_image "null_fn" in
      let rev, rev_prep = load app Ulib.strrev_image "strrev" in
      let fext, f_prep = load app filter_image "filter" in
      let _, rogue_prep = load app Ulib.rogue_write_image "poke" in
      check (Result.is_ok (call app ~prepare:null_prep ~arg:1));
      Tracer.enter tr Tracer.xmalloc;
      let buf = Pbackend.xmalloc rev (Bytes.length word_nul) in
      Tracer.leave tr;
      Tracer.enter tr Tracer.poke;
      Pbackend.poke_bytes app buf word_nul;
      Tracer.leave tr;
      check (Result.is_ok (call app ~prepare:rev_prep ~arg:buf));
      Tracer.enter tr Tracer.peek;
      check (Bytes.equal (Pbackend.peek_bytes app buf (Bytes.length word)) word_rev);
      Tracer.leave tr;
      let p = i land 1 in
      let fbuf = Pbackend.dlsym_data fext Pconfig.shared_area_symbol in
      Tracer.enter tr Tracer.poke;
      Pbackend.poke_bytes app fbuf pkts.(p);
      Tracer.leave tr;
      (match call app ~prepare:f_prep ~arg:fbuf with
      | Ok (v, _) -> check (v = 1 = verdicts.(p))
      | Error _ -> check false);
      (* the rogue store aims at hidden application memory *)
      let task = Pbackend.task app in
      Tracer.enter tr Tracer.mmap;
      let area =
        Address_space.mmap task.Task.asp ~len:4096 ~perms:Vm_area.rw Vm_area.Data
      in
      Address_space.populate task.Task.asp area;
      Tracer.leave tr;
      let cell = area.Vm_area.va_start in
      Pbackend.poke_u32 app cell sentinel;
      (match call ~span:Tracer.fault_call app ~prepare:rogue_prep ~arg:cell with
      | Error (User_ext.Protection_fault _) ->
          check (Pbackend.peek_u32 app cell = sentinel)
      | Ok _ | Error _ -> check false);
      let cycles = Cpu.cycles (Palladium.cpu w) in
      Tracer.enter tr Tracer.teardown;
      Palladium.teardown w;
      Tracer.leave tr;
      (backends.(i), !ok, cycles)
    in
    warm (if cfg.smoke then 2 else 300) (fun i -> lifecycle Tracer.off (i mod lifecycles));
    let r = recorder ~classes:2 ~capacity:lifecycles in
    let repeat tr =
      timed r (fun () ->
          for i = 0 to lifecycles - 1 do
            let t0 = Tracer.now_ns () in
            Tracer.enter tr Tracer.op;
            let cls, ok, cycles = lifecycle tr i in
            Tracer.leave tr;
            let t1 = Tracer.now_ns () in
            record r ~cls ~ns:(t1 - t0) ~ok ~cycles
          done;
          None)
    in
    (* host time of each step of a lifecycle *)
    let layers tr =
      [
        m "kern.boot_us" "us" [ median_us tr Tracer.boot ];
        m "core.create_app_us" "us" [ median_us tr Tracer.create_app ];
        m "core.load_us" "us" [ median_us tr Tracer.load ];
        m "core.fault_call_us" "us" [ median_us tr Tracer.fault_call ];
        m "kern.teardown_us" "us" [ median_us tr Tracer.teardown ];
      ]
    in
    { repeat; layers }
  in
  { name = "churn"; setup }

(* --- serve ------------------------------------------------------------

   Table 3's protected LibCGI row, run for real: a fleet of 8 worlds
   (half seg, half mpk) on 2 domains.  Each request body is copied into
   the extension heap, reversed by strrev through the boundary and
   copied back; the measured cycles then price the world's requests on
   the 16-client closed-loop web server model ([Server.run]).  The only
   parallel workload and the most memory-heavy one. *)

let body_sizes = [| 28; 512; 2000 |]

(* 50/35/15 of 28/512/2000-byte bodies, per 20 requests *)
let body_mix = [| 10; 7; 3 |]

let clients = 16

type serve_world = {
  sw_app : Pbackend.app;
  sw_prepare : int;
  sw_span : int; (* its backend's call span *)
  sw_buf : int;
  sw_bodies : Bytes.t array; (* NUL-terminated *)
  sw_expect : Bytes.t array;
  sw_cls0 : int; (* op class of the smallest body: 3 x backend *)
  sw_class : int array;
  sw_bytes : int; (* bytes copied in and out by all its requests *)
  sw_rec : recorder;
  mutable sw_tracer : Tracer.t;
  mutable sw_sim : int * float; (* requests and simulated usec served *)
}

let serve =
  let setup cfg =
    let worlds_n = if cfg.smoke then 2 else 8 in
    let requests = if cfg.smoke then 20 else 100 in
    let st = rng cfg 5 in
    (* op classes: backend x body size *)
    let classes = 2 * Array.length body_sizes in
    let world i =
      (* worlds 0,1 seg, 2,3 mpk, ...: the fleet shards world i onto
         domain i mod 2, so each domain gets both backends *)
      let mpk = (i / 2) land 1 in
      let backend = if mpk = 0 then Pbackend.Segmentation else Pbackend.Mpk in
      let _w, app = app_world ~backend ~name:(Printf.sprintf "serve%d" i) in
      let ext, prepare = resolve app Ulib.strrev_image "strrev" in
      let buf = Pbackend.xmalloc ext (body_sizes.(2) + 1) in
      let sizes = composed st (Array.map (fun k -> k * requests / 20) body_mix) in
      let bodies = Array.map (fun s -> printable st body_sizes.(s)) sizes in
      {
        sw_app = app;
        sw_prepare = prepare;
        sw_span = call_span backend;
        sw_buf = buf;
        sw_bodies = Array.map (fun b -> Bytes.cat b (Bytes.make 1 '\000')) bodies;
        sw_expect = Array.map reversed bodies;
        sw_cls0 = 3 * mpk;
        sw_class = Array.map (fun s -> (3 * mpk) + s) sizes;
        sw_bytes = Array.fold_left (fun a b -> a + (2 * Bytes.length b) + 1) 0 bodies;
        sw_rec = recorder ~classes ~capacity:(Array.length sizes);
        sw_tracer = Tracer.off;
        sw_sim = (0, 0.);
      }
    in
    let worlds = Array.init worlds_n world in
    (* Each body size's requests at their mean measured cycles, on the
       web server model. *)
    let price sw tr =
      let r = sw.sw_rec in
      Tracer.enter tr Tracer.server_run;
      sw.sw_sim <-
        Array.fold_left
          (fun (reqs, usec) s ->
            let cls = sw.sw_cls0 + s in
            let n = r.fill.(cls) in
            if n = 0 then (reqs, usec)
            else
              let cycles = float_of_int r.cls_cycles.(cls) /. float_of_int n in
              let res =
                Server.run ~concurrency:clients ~total:n
                  ~invocation:Cgi_model.Libcgi_protected ~bytes:body_sizes.(s)
                  ~protected_call_usec:(cycles /. mhz) ()
              in
              (reqs + res.Server.requests, usec +. res.Server.elapsed_usec))
          (0, 0.)
          (Array.init (Array.length body_sizes) Fun.id);
      Tracer.leave tr
    in
    (* The first [n] requests of one world, then its server. *)
    let serve_world ~n sw =
      let r = sw.sw_rec and tr = sw.sw_tracer and app = sw.sw_app in
      reset r;
      let (), words, promoted =
        domain_alloc (fun () ->
            for j = 0 to n - 1 do
              let body = sw.sw_bodies.(j) in
              let len = Bytes.length body - 1 in
              let t0 = Tracer.now_ns () in
              Tracer.enter tr Tracer.op;
              Tracer.enter tr Tracer.poke;
              Pbackend.poke_bytes app sw.sw_buf body;
              Tracer.leave tr;
              Tracer.enter tr sw.sw_span;
              let res = Pbackend.call app ~prepare:sw.sw_prepare ~arg:sw.sw_buf in
              Tracer.leave tr;
              Tracer.enter tr Tracer.peek;
              let reply = Pbackend.peek_bytes app sw.sw_buf len in
              Tracer.leave tr;
              Tracer.leave tr;
              let t1 = Tracer.now_ns () in
              let cls = sw.sw_class.(j) and ns = t1 - t0 in
              match res with
              | Ok (_, c) ->
                  record r ~cls ~ns ~ok:(Bytes.equal reply sw.sw_expect.(j)) ~cycles:c
              | Error _ -> record r ~cls ~ns ~ok:false ~cycles:0
            done;
            price sw tr)
      in
      (words, promoted)
    in
    Array.iter (fun sw -> ignore (serve_world ~n:(requests / 2) sw)) worlds;
    let cpus = Array.to_list (Array.map (fun sw -> app_cpu sw.sw_app) worlds) in
    let r = recorder ~classes ~capacity:(worlds_n * requests) in
    let world_tracers = lazy (Array.map (fun _ -> Tracer.create ~on:true) worlds) in
    let traced = ref 0 and fleet_wall = ref 0. and world_walls = ref [] in
    let run ~domains tr =
      Array.iteri
        (fun i sw ->
          sw.sw_tracer <-
            (if tr.Tracer.on then (Lazy.force world_tracers).(i) else Tracer.off))
        worlds;
      clear_marks cpus;
      let sample =
        timed r (fun () ->
            let fl =
              Fleet.run ~domains ~worlds:worlds_n (fun i ->
                  serve_world ~n:requests worlds.(i))
            in
            fleet_wall := Fleet.elapsed fl;
            world_walls := List.map (fun w -> w.Fleet.wr_elapsed) (Fleet.results fl);
            Array.iter (fun sw -> absorb ~into:r sw.sw_rec) worlds;
            let sum f = List.fold_left (fun a v -> a +. f v) 0. (Fleet.values fl) in
            Some (sum fst, sum snd, Obs.Sink.counters (Fleet.merged fl)))
      in
      if tr.Tracer.on then begin
        incr traced;
        Array.iter (fun sw -> Tracer.absorb ~into:tr sw.sw_tracer) worlds
      end;
      sample
    in
    let layers tr =
      let bytes = !traced * Array.fold_left (fun a sw -> a + sw.sw_bytes) 0 worlds in
      let served = !traced * worlds_n * requests in
      let copy_ns = Tracer.total_ns tr Tracer.poke + Tracer.total_ns tr Tracer.peek in
      let reqs, usec =
        Array.fold_left
          (fun (n, u) sw -> (n + fst sw.sw_sim, u +. snd sw.sw_sim))
          (0, 0.) worlds
      in
      (* the fleet on one domain against two, untraced *)
      let trials =
        List.init 3 (fun _ ->
            let one = run ~domains:1 Tracer.off in
            let serial = !fleet_wall in
            let two = run ~domains:2 Tracer.off in
            if one.failed + two.failed > 0 then failwith "serve: a request failed its oracle";
            ( Fleet.speedup ~serial ~parallel:!fleet_wall,
              List.fold_left max 0. !world_walls /. List.fold_left min infinity !world_walls ))
      in
      [
        m "core.poke_peek_ns_per_byte" "ns/B" [ float_of_int copy_ns /. float_of_int bytes ];
        m "websrv.des_us_per_req" "us"
          [ float_of_int (Tracer.total_ns tr Tracer.server_run) /. 1e3 /. float_of_int served ];
        m "websrv.sim_rps" "req/sim_s" [ float_of_int reqs /. (usec /. 1e6) ];
        m "fleet.speedup_2v1" "ratio" (List.map fst trials);
        m "fleet.world_imbalance" "ratio" (List.map snd trials);
      ]
    in
    { repeat = run ~domains:2; layers }
  in
  { name = "serve"; setup }

let all = [ crossing; compute; filter; churn; serve ]

let find name = List.find_opt (fun w -> w.name = name) all
