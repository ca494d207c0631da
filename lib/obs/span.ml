(* Nestable begin/end spans and point-in-time instants, stamped with
   the caller's clock (the simulated CPU cycle counter, or DES
   microseconds for the web-server model): the one in-program recorder.

   The state lives in the current domain's {!Sink} (one per world;
   {!Span_state} holds the bounded ring) and is off by default: hot
   call sites guard with [on ()].  A completed span records its
   parent/child structure and feeds its duration into the histogram
   registered under its name, so a single profiled run yields both the
   timeline (Chrome trace, folded stacks) and the latency distribution
   per phase.  An instant is a zero-length entry for a point event (a
   descriptor write, a module load); it feeds no histogram.  Span ids
   come from a process-wide [Atomic.t], so merged fleets keep
   unambiguous parent links.

   Unbalanced ends are tolerated rather than fatal: ending a span
   that is not on top of the stack implicitly ends everything nested
   inside it at the same stamp, and ending a span that was never begun
   is dropped; both are tallied in the [obs.span.unbalanced] counter
   so tests and dashboards can see the instrumentation bug. *)

type completed = Span_state.completed = {
  sp_id : int;
  sp_parent : int option;
  sp_name : string;
  sp_start : int;
  sp_stop : int;
  sp_depth : int;
  sp_track : int;
  sp_args : (string * string) list;
  sp_instant : bool;
}

let st () = Sink.span_state (Sink.current ())

let on () = (st ()).Span_state.enabled

let set_enabled b = (st ()).Span_state.enabled <- b

let capacity () = (st ()).Span_state.capacity

let set_capacity n = Span_state.set_capacity (st ()) n

let dropped () = (st ()).Span_state.dropped

let c_unbalanced = Counters.counter "obs.span.unbalanced"

let clear () = Span_state.clear (st ())

let open_depth () = List.length (st ()).Span_state.stack

let current_id st =
  match st.Span_state.stack with [] -> None | f :: _ -> Some f.sp_id

(* Store one entry; a span (not an instant) also feeds the histogram
   named after it. *)
let push st c =
  Span_state.push st c;
  if not c.sp_instant then
    Histogram.observe (Histogram.get_or_create c.sp_name) (c.sp_stop - c.sp_start)

let finish st f ~args ~at =
  push st { f with sp_stop = max f.sp_start at; sp_args = f.sp_args @ args }

let begin_ ?(args = []) name ~at =
  let st = st () in
  if st.Span_state.enabled then
    st.stack <-
      {
        sp_id = Span_state.fresh_id ();
        sp_parent = current_id st;
        sp_name = name;
        sp_start = at;
        sp_stop = at;
        sp_depth = List.length st.stack;
        sp_track = 1;
        sp_args = args;
        sp_instant = false;
      }
      :: st.stack

let end_ ?(args = []) name ~at =
  let st = st () in
  if st.Span_state.enabled then
    if List.exists (fun f -> f.sp_name = name) st.stack then begin
      (* Implicitly close anything left open inside [name]. *)
      let rec pop () =
        match st.stack with
        | [] -> ()
        | f :: rest ->
            st.stack <- rest;
            if f.sp_name = name then finish st f ~args ~at
            else begin
              finish st f ~args:[] ~at;
              Counters.incr c_unbalanced;
              pop ()
            end
      in
      pop ()
    end
    else
      (* End without a matching begin: drop it, but make it visible. *)
      Counters.incr c_unbalanced

(* An after-the-fact entry goes under [parent] when given, else under
   the innermost open span. *)
let push_after st ~args ~track ~parent ~instant name ~start ~stop =
  let parent = match parent with Some _ -> parent | None -> current_id st in
  let depth = match parent with None -> 0 | Some _ -> List.length st.stack in
  let id = Span_state.fresh_id () in
  push st
    {
      sp_id = id;
      sp_parent = parent;
      sp_name = name;
      sp_start = start;
      sp_stop = max start stop;
      sp_depth = max 1 depth;
      sp_track = track;
      sp_args = args;
      sp_instant = instant;
    };
  id

(* Record a fully-formed span after the fact (e.g. phases recovered
   from CPU marks, or DES request lifecycles). *)
let record ?(args = []) ?(track = 1) ?parent name ~start ~stop =
  let st = st () in
  if not st.Span_state.enabled then None
  else Some (push_after st ~args ~track ~parent ~instant:false name ~start ~stop)

let instant ?(args = []) name ~at =
  let st = st () in
  if st.Span_state.enabled then
    ignore
      (push_after st ~args ~track:1 ~parent:None ~instant:true name ~start:at
         ~stop:at)

let spans () = Span_state.spans (st ())

let entries () = Span_state.entries (st ())

let length () = (st ()).Span_state.stored

let unbalanced () = Counters.value c_unbalanced

(* --- Event families ---------------------------------------------------- *)

let families =
  [ "priv"; "fault"; "call"; "syscall"; "module"; "watchdog"; "desc"; "audit";
    "span" ]

let family s =
  match s.sp_name with
  | "hw.lcall" | "hw.lret" | "hw.int" | "hw.iret" -> "priv"
  | "hw.fault" -> "fault"
  | "protected_call" -> "call"
  | name -> (
      match String.index_opt name '.' with
      | Some i when List.mem (String.sub name 0 i) families ->
          String.sub name 0 i
      | _ -> "span")

let entry_to_json s =
  let str (k, v) = (k, Json.String v) in
  Json.Obj
    ([
       ("id", Json.Int s.sp_id);
       ("at_cycles", Json.Int s.sp_start);
       str ("kind", family s);
       str ("name", s.sp_name);
     ]
    @ (if s.sp_instant then []
       else [ ("dur", Json.Int (s.sp_stop - s.sp_start)) ])
    @ [ ("args", Json.Obj (List.map str s.sp_args)) ])

let pp_entry ppf s =
  Fmt.pf ppf "[%6d] @%-10d %s" s.sp_id s.sp_start s.sp_name;
  if not s.sp_instant then Fmt.pf ppf " +%d" (s.sp_stop - s.sp_start);
  List.iter (fun (k, v) -> Fmt.pf ppf " %s=%s" k v) s.sp_args
