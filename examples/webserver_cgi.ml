(* The paper's user-level application: LibCGI — CGI scripts invoked by
   the web server as protected local function calls.  This example

   1. measures the protected-call cost on the simulated CPU (the cost
      LibCGI pays per request under Palladium), and
   2. runs the ApacheBench-style experiment comparing CGI, FastCGI,
      LibCGI, protected LibCGI and static files.

       dune exec examples/webserver_cgi.exe *)

let () =
  (* Measure one protected call the way the web server would pay it. *)
  let world = Palladium.boot () in
  let app = Palladium.create_app world ~name:"httpd" in
  let script = User_ext.seg_dlopen app Ulib.strrev_image in
  let prepare = User_ext.seg_dlsym app script "strrev" in
  let buf = User_ext.xmalloc script 128 in
  User_ext.poke_bytes app buf (Bytes.of_string "<html>hi</html>\000");
  ignore (User_ext.call app ~prepare ~arg:buf) (* warm *);
  User_ext.poke_bytes app buf (Bytes.of_string "<html>hi</html>\000");
  let call_usec =
    match User_ext.call app ~prepare ~arg:buf with
    | Ok (_, cycles) -> Cycles.cycles_to_usec cycles
    | Error e -> Fmt.failwith "CGI call failed: %a" User_ext.pp_call_error e
  in
  Printf.printf
    "a LibCGI script runs as a protected call: %.2f usec per invocation\n\
     (script output: %s)\n\n"
    call_usec
    (Bytes.to_string (User_ext.peek_bytes app buf 15));

  (* The throughput experiment (Table 3), using the measured call cost
     for the protected LibCGI column. *)
  let rows = Bench_ab.sweep ~protected_call_usec:call_usec () in
  Printf.printf "%-12s %8s %9s %13s %15s %11s\n" "size" "CGI" "FastCGI"
    "LibCGI(prot)" "LibCGI(unprot)" "static";
  List.iter
    (fun (row : Bench_ab.row) ->
      let v inv = Bench_ab.throughput row inv in
      Printf.printf "%-12s %8.0f %9.0f %13.0f %15.0f %11.0f\n"
        row.Bench_ab.size_label (v Cgi_model.Cgi) (v Cgi_model.Fast_cgi)
        (v Cgi_model.Libcgi_protected) (v Cgi_model.Libcgi)
        (v Cgi_model.Static))
    rows;
  print_endline
    "\n(requests/second, 1000 requests, 30 concurrent, 100 Mbps link —\n\
    \ protected LibCGI stays within a few percent of unprotected LibCGI\n\
    \ and several times faster than fork/exec CGI)"
