(* The benchmark's own span recorder.  Spans sit around the benchmark's
   calls into each layer's public functions; each records its name, start,
   end, parent span and request id.  Spans are kept in memory and written
   as JSONL when the run ends.  Only traced runs create a tracer, so
   untraced runs measure the program alone. *)

type span = {
  sp_id : int;
  sp_name : string;  (** "<layer>.<operation>", e.g. "fisher.score" *)
  sp_parent : int;  (** -1 at the top level *)
  sp_request : string;
  sp_start : float;
  mutable sp_stop : float;
}

type t = {
  mutable spans : span list;  (* newest first *)
  mutable stack : span list;
  mutable next_id : int;
}

let create () = { spans = []; stack = []; next_id = 0 }

let now = Unix.gettimeofday

let open_span t ?request name =
  let parent, inherited =
    match t.stack with [] -> (-1, "") | p :: _ -> (p.sp_id, p.sp_request)
  in
  let sp =
    { sp_id = t.next_id;
      sp_name = name;
      sp_parent = parent;
      sp_request = Option.value request ~default:inherited;
      sp_start = now ();
      sp_stop = nan }
  in
  t.next_id <- t.next_id + 1;
  t.stack <- sp :: t.stack;
  sp

let close_span t sp =
  sp.sp_stop <- now ();
  t.stack <- List.tl t.stack;
  t.spans <- sp :: t.spans

let with_span t ?request name f =
  let sp = open_span t ?request name in
  Fun.protect ~finally:(fun () -> close_span t sp) f

(* Adopt the program's own spans ([Obs] events: begin/end pairs with a
   depth) as children of the innermost open span, renamed
   "program.<name>" so self time can tell them apart from the benchmark's
   spans.  Events absorbed from worker domains overlap in time; their
   parents' self time is clipped at zero below. *)
let adopt_program_spans t events =
  let stack = ref [] in
  List.iter
    (fun (e : Obs_event.t) ->
      match e.Obs_event.e_kind with
      | Obs_event.Span_begin ->
          let parent, request =
            match (!stack, t.stack) with
            | p :: _, _ | [], p :: _ -> (p.sp_id, p.sp_request)
            | [], [] -> (-1, "")
          in
          let sp =
            { sp_id = t.next_id;
              sp_name = "program." ^ e.e_name;
              sp_parent = parent;
              sp_request = request;
              sp_start = e.e_t;
              sp_stop = nan }
          in
          t.next_id <- t.next_id + 1;
          stack := sp :: !stack
      | Obs_event.Span_end -> (
          match !stack with
          | sp :: rest ->
              sp.sp_stop <- e.e_t;
              t.spans <- sp :: t.spans;
              stack := rest
          | [] -> ())
      | Obs_event.Note -> ())
    events

let spans t = List.rev t.spans

let duration sp = sp.sp_stop -. sp.sp_start

let layer_of name =
  match String.index_opt name '.' with
  | Some i when String.sub name 0 i = "program" -> (
      (* The program's search phases, attributed to the layer doing the
         work. *)
      match String.sub name (i + 1) (String.length name - i - 1) with
      | "fisher" -> "fisher"
      | "legality" -> "analysis"
      | "cost" | "baseline" -> "npte"
      | _ -> "search")
  | Some i -> String.sub name 0 i
  | None -> name

(* Self time per layer (seconds): each span's duration minus the time its
   direct children cover, clipped at zero, summed by layer. *)
let self_time_by_layer t =
  let all = spans t in
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun sp ->
      if sp.sp_parent >= 0 then
        Hashtbl.replace child_time sp.sp_parent
          (duration sp +. Option.value (Hashtbl.find_opt child_time sp.sp_parent) ~default:0.0))
    all;
  let by_layer = Hashtbl.create 16 in
  List.iter
    (fun sp ->
      let self =
        Float.max 0.0
          (duration sp -. Option.value (Hashtbl.find_opt child_time sp.sp_id) ~default:0.0)
      in
      let layer = layer_of sp.sp_name in
      Hashtbl.replace by_layer layer
        (self +. Option.value (Hashtbl.find_opt by_layer layer) ~default:0.0))
    all;
  by_layer

let write t path =
  let oc = open_out path in
  List.iter
    (fun sp ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%s,\"parent\":%d,\"request\":%s,\"start\":%.6f,\"end\":%.6f}\n"
        sp.sp_id (Obs_event.json_string sp.sp_name) sp.sp_parent
        (Obs_event.json_string sp.sp_request) sp.sp_start sp.sp_stop)
    (spans t);
  close_out oc
