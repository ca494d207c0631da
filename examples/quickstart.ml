(* Quickstart: boot a Palladium world, build an extensible application,
   load an extension into an SPL 3 extension segment and call it as a
   protected local function call.

       dune exec examples/quickstart.exe *)

let () =
  (* Boot the simulated Pentium + Palladium-modified kernel. *)
  let world = Palladium.boot () in

  (* An extensible application: created at SPL 3, it promotes itself
     to SPL 2 with init_PL — from here on all its writable pages are
     PPL 0 and invisible to extensions. *)
  let app = Palladium.create_app world ~name:"quickstart" in
  Printf.printf "application promoted: taskSPL=%d\n"
    (X86.Privilege.to_int (User_ext.task app).Task.task_spl);

  (* Load an extension (a stateful invocation counter) with
     seg_dlopen: same 0-3GB range, SPL 3 segment, own stack + heap. *)
  let ext = User_ext.seg_dlopen app Ulib.counter_image in

  (* seg_dlsym generates the Prepare/Transfer stubs (Figure 6) and
     returns a pointer to Prepare. *)
  let bump = User_ext.seg_dlsym app ext "bump" in

  for _ = 1 to 3 do
    match User_ext.call app ~prepare:bump ~arg:0 with
    | Ok (count, cycles) ->
        Printf.printf "protected call -> count=%d (%d cycles, %.2f usec)\n"
          count cycles (Cycles.cycles_to_usec cycles)
    | Error e -> Fmt.pr "call failed: %a\n" User_ext.pp_call_error e
  done;

  (* The extension cannot touch the application's private data: *)
  let rogue = User_ext.seg_dlopen app Ulib.rogue_write_image in
  let poke = User_ext.seg_dlsym app rogue "poke" in
  let private_page =
    List.find
      (fun (a : Vm_area.t) -> a.Vm_area.label = "palladium.data")
      (Address_space.areas (User_ext.task app).Task.asp)
  in
  (match User_ext.call app ~prepare:poke ~arg:private_page.Vm_area.va_start with
  | Error (User_ext.Protection_fault f) ->
      Fmt.pr "rogue write stopped by hardware: %a\n" X86.Fault.pp f
  | Ok _ -> print_endline "!! protection failed"
  | Error e -> Fmt.pr "unexpected: %a\n" User_ext.pp_call_error e);
  Printf.printf "SIGSEGVs delivered to the application: %d\n"
    (List.length (Signal.delivered (User_ext.task app).Task.signals))
