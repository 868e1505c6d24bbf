(* The repository benchmark: one command runs a named workload with a seed,
   checks every output it produces, and prints each metric by name with
   its unit and sample count.  The last line of standard output is one
   JSON object {correct, attempted, failed, metrics}.

     bench.exe --workload search-cold|serve-warm
               --seed N --seconds S --trace 0|1
     bench.exe --self-test

   Every run does a fixed amount of seeded work, sized from --seconds
   (never stopped on elapsed time), so two runs with one seed do the same
   work.  --trace 0 reports the end-to-end metrics; --trace 1 replays a
   seeded sample of the workload through each layer's public functions
   under the benchmark's own spans and reports the per-layer metrics.
   See perfbench/README.md for what each number means. *)

let out_dir = Filename.concat "perfbench" "_out"

let devices = Device.all

(* --- operations attempted and failed ------------------------------------ *)

let attempted = ref 0
let failed = ref 0

(* One checked operation: [ok] false counts it as failed and says why on
   stderr. *)
let operation ok fmt =
  Printf.ksprintf
    (fun msg ->
      incr attempted;
      if not ok then begin
        incr failed;
        prerr_endline ("perfbench: check failed: " ^ msg)
      end)
    fmt

(* --- metrics ------------------------------------------------------------- *)

type metric = { m_name : string; m_value : float; m_unit : string; m_n : int; m_note : string }

let reported : metric list ref = ref []

(* A metric that cannot be computed is a failed operation, reported as 0. *)
let report ?(n = 1) ?(note = "") name unit value =
  let value =
    if Float.is_finite value then value
    else begin
      operation false "metric %s is not finite" name;
      0.0
    end
  in
  reported := { m_name = name; m_value = value; m_unit = unit; m_n = n; m_note = note } :: !reported

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result () =
  let ms = List.rev !reported in
  List.iter
    (fun m ->
      Printf.printf "%-40s %16.6f %-8s n=%d%s\n" m.m_name m.m_value m.m_unit m.m_n
        (if m.m_note = "" then "" else "  " ^ m.m_note))
    ms;
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Obs_event.json_string m.m_name)
          (json_number m.m_value) (Obs_event.json_string m.m_unit))
      ms
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0 && !attempted > 0)
    !attempted !failed (String.concat ", " fields)

(* --- process measurements ------------------------------------------------ *)

(* Peak resident set of this process (VmHWM), in MB.  Every phase before
   the timed window does no more work at once than the window itself, so
   the process peak is the window's peak. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ ->
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  | ic ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
                float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> 0.0
      in
      let v = scan () in
      close_in ic;
      v

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* --- host speed ----------------------------------------------------------- *)

(* The machines this benchmark runs on are shared, and their speed drifts
   by up to 1.5x over minutes: every timing of a run moves with it, set-up
   and search alike.  So each run also times a fixed calibration kernel
   between its timed operations, and reports each time normalized to a
   host on which that kernel takes [calibration_ref_ms]: a time measured
   next to a calibration time c is multiplied by calibration_ref_ms / c.
   The kernel does not call the program and does not allocate: streaming
   reads over 8 MB, then a 64x64 matrix product.  Raw figures are printed
   next to every normalized one. *)
let calibration_ref_ms = 7.0

let calib_stream = Array.init (1 lsl 20) float_of_int
let calib_a = Array.init (64 * 64) (fun i -> float_of_int (i mod 7))
let calib_c = Array.make (64 * 64) 0.0

let calibration_kernel () =
  let s = ref 0.0 in
  for _ = 1 to 4 do
    for i = 0 to Array.length calib_stream - 1 do
      s := !s +. (Array.unsafe_get calib_stream i *. 1.0000001)
    done
  done;
  for _ = 1 to 4 do
    for i = 0 to 63 do
      for j = 0 to 63 do
        let acc = ref 0.0 in
        for k = 0 to 63 do
          acc := !acc +. (Array.unsafe_get calib_a ((i * 64) + k) *. Array.unsafe_get calib_a ((k * 64) + j))
        done;
        Array.unsafe_set calib_c ((i * 64) + j) !acc
      done
    done
  done;
  Array.unsafe_set calib_c 0 !s

(* One calibration, as a host factor: above 1 when the host runs slower
   than the reference. *)
let calibrate () =
  let t0 = now () in
  calibration_kernel ();
  1000.0 *. (now () -. t0) /. calibration_ref_ms

let print_host_factor ~how factors =
  Printf.printf "host factor %.4f: median of %d calibrations, %s (reference %.1f ms)\n"
    (Stat.median factors) (Array.length factors) how calibration_ref_ms

(* --- set-up: what a user waits for before the first search ------------- *)

type session = {
  se_network : string;
  se_seed : int;
  se_model : Models.t;
  se_probe : Train.batch;
  se_ctx : Eval_ctx.t;
  se_rng : Rng.t;
}

let spec network =
  match Zoo.spec network with Some s -> s | None -> failwith ("unknown network " ^ network)

(* The one-shot search's set-up, threaded exactly as [nas_pte search] and
   the daemon's sessions thread it, so results are comparable with both. *)
let setup ?obs ~device network seed =
  let rng = Rng.create seed in
  let model = Models.build (spec network) rng in
  let probe = Exp_common.probe_batch (Rng.split rng) ~input_size:model.Models.input_size in
  let ctx = Eval_ctx.create ~device ?obs () in
  { se_network = network; se_seed = seed; se_model = model; se_probe = probe; se_ctx = ctx;
    se_rng = rng }

(* --- workloads ----------------------------------------------------------- *)

type search_workload = {
  sw_networks : string array;  (* request i searches sw_networks.(i mod len) *)
  sw_candidates : int;
  sw_budget : int option;
  sw_replayed : int;
}

(* Request i searches networks.(i mod 4): three depthwise/pointwise
   requests to one dense one, so the median falls inside the
   mobilenet_small cluster and the p90 tail inside the resnet18 one,
   never in the gap between them. *)
let networks = [| "mobilenet_small"; "mobilenet_small"; "mobilenet_small"; "resnet18" |]

(* The traced run follows the first request of each network. *)
let traced_requests = [ 0; Array.length networks - 1 ]

let search_cold =
  { sw_networks = networks;
    sw_candidates = 24;
    sw_budget = Some 2;
    sw_replayed = 4 }

(* The daemon workload: (network, seed) pairs, warmed once on CPU, then
   swept over every device until the run's request count is reached. *)
let serve_candidates = 8
let serve_pairs = 16
let serve_workers = 2
let serve_clients = 2

let why = function
  | "search-cold" ->
      "100 serial one-shot searches, 3 mobilenet_small : 1 resnet18, fresh context each: Fisher (lib/fisher, lib/nn, lib/tensor) is nearly all of the wall; tail is p90 of 100"
  | "serve-warm" ->
      "2-worker daemon on a warm snapshot, 100 requests over 16 seeds x 4 devices: Fisher memo hits, so reference pass, generation, autotune and serving dominate; tail is p90 of 100"
  | _ -> ""

(* Both workloads serve the same number of search requests per run, so the
   tail (the highest order statistic with ten samples beyond it) is the
   same percentile on both: p90 at the run length in BENCHMARK.json. *)
let requests_per_run ~seconds = 100 * max 1 (seconds / 40)

(* Fixed seeded request list: seeds drawn from the run seed. *)
let request_seeds ~seed n =
  let r = Rng.create ((seed * 7919) + 104729) in
  Array.init n (fun _ -> 1 + Rng.int r 999_999)

(* --- searches and their output checks ---------------------------------- *)

let run_search wl s ~device =
  Unified_search.search ~candidates:wl.sw_candidates ?budget:wl.sw_budget ~ctx:s.se_ctx
    ~rng:(Rng.split s.se_rng) ~device ~probe:s.se_probe s.se_model

let fingerprint (r : Unified_search.result) =
  Printf.sprintf "%s|%h|%d|%d"
    (Unified_search.plans_signature r.r_best.Unified_search.cd_plans)
    r.r_best.cd_latency_s r.r_rejected r.r_explored

(* The checks every search result passes: the winner re-evaluated on a
   fresh context gives its latency exactly, it passes the static checker,
   and nothing was quarantined. *)
let winner_problems (s : session) ~device (r : Unified_search.result) =
  let best = r.Unified_search.r_best in
  let ev =
    Pipeline.evaluate ~ctx:(Eval_ctx.create ~device ()) device s.se_model
      ~plans:best.Unified_search.cd_plans
  in
  List.filter_map
    (fun (bad, what) -> if bad then Some what else None)
    [ (ev.Pipeline.ev_latency_s <> best.cd_latency_s, "re-evaluated latency differs");
      (Static_check.candidate s.se_model best.cd_plans <> None, "winner fails the static check");
      (r.r_quarantined <> [], "candidates quarantined") ]

let check_search what s ~device r =
  let problems = winner_problems s ~device r in
  operation (problems = []) "%s %s seed %d on %s: %s" what s.se_network s.se_seed
    device.Device.short_name (String.concat "; " problems)

(* --- end-to-end: search workloads -------------------------------------- *)

(* The end-to-end metrics both workloads report.  [setup_s] and [lat_s]
   are raw seconds, each divided by the host factor at the same index of
   [setup_f] and [lat_f]; [wall_s] is the raw wall [evaluated] candidates
   took, divided by [wall_f]. *)
let report_end_to_end ~n_note ~setup_note ~setup_s ~setup_f ~lat_s ~lat_f ~evaluated ~wall_s ~wall_f =
  let n = Array.length lat_s in
  let raw unit v = Printf.sprintf "raw %.6g %s" v unit in
  let norm xs fs = Array.mapi (fun i x -> x /. fs.(i)) xs in
  report ~n:(Array.length setup_s) "setup_s" "s" (Stat.median (norm setup_s setup_f))
    ~note:(Printf.sprintf "%s, %s" setup_note (raw "s" (Stat.median setup_s)));
  let raw_ms = Array.map (fun x -> 1000.0 *. x) lat_s in
  let lat_ms = norm raw_ms lat_f in
  report ~n "latency_ms_p50" "ms" (Stat.median lat_ms)
    ~note:(Printf.sprintf "%s, %s" n_note (raw "ms" (Stat.median raw_ms)));
  (match (Stat.tail lat_ms, Stat.tail raw_ms) with
  | Some (v, p), Some (r, _) ->
      report ~n "latency_ms_tail" "ms" v ~note:(Printf.sprintf "p%.1f, %s, %s" p n_note (raw "ms" r))
  | _ -> failwith "too few requests for a tail percentile");
  let rate = float_of_int evaluated /. wall_s in
  report ~n "candidates_per_s" "1/s" (rate *. wall_f) ~note:(raw "1/s" rate)

(* The factor a wall made of these requests is divided by: raw over
   normalized latency, summed over the requests. *)
let latency_weighted_factor lat f = Stat.sum lat /. Stat.sum (Array.mapi (fun i x -> x /. f.(i)) lat)

let measure_search name wl ~seed ~seconds =
  let device = Device.i7 in
  let n = requests_per_run ~seconds in
  let seeds = request_seeds ~seed n in
  let network i = wl.sw_networks.(i mod Array.length wl.sw_networks) in
  let setup_s = Array.make n 0.0 and lat = Array.make n 0.0 in
  let evaluated = ref 0 and speedups = Array.make n 0.0 in
  let first = ref "" in
  (* calib.(i) is taken just before request i, calib.(n) after the last:
     request i is normalized by the mean of the two around it. *)
  let calib = Array.make (n + 1) 0.0 in
  for i = 0 to n - 1 do
    calib.(i) <- calibrate ();
    (* Each set-up starts from a collected heap, so every repetition sees
       the same heap state. *)
    Gc.full_major ();
    let s, dt = timed (fun () -> setup ~device (network i) seeds.(i)) in
    setup_s.(i) <- dt;
    let r, dt = timed (fun () -> run_search wl s ~device) in
    lat.(i) <- dt;
    evaluated := !evaluated + r.Unified_search.r_evaluated;
    speedups.(i) <- Unified_search.speedup r;
    if i = 0 then first := fingerprint r;
    check_search name s ~device r
  done;
  calib.(n) <- calibrate ();
  let f = Array.init n (fun i -> (calib.(i) +. calib.(i + 1)) /. 2.0) in
  let rss = peak_rss_mb () in
  (* One repeated search per run reproduces its first fingerprint. *)
  let s = setup ~device (network 0) seeds.(0) in
  let again = fingerprint (run_search wl s ~device) in
  operation (again = !first) "repeated search reproduces %s (got %s)" !first again;
  print_host_factor ~how:"one before each request and one after the last" f;
  report_end_to_end ~n_note:(Printf.sprintf "n=%d searches" n) ~setup_note:"median of per-request set-ups"
    ~setup_s ~setup_f:f ~lat_s:lat ~lat_f:f ~evaluated:!evaluated ~wall_s:(Stat.sum lat)
    ~wall_f:(latency_weighted_factor lat f);
  report ~n "best_speedup" "x" (Stat.geomean speedups) ~note:"geomean over distinct searches";
  report "peak_rss_mb" "MB" rss

(* --- the daemon: closed loop through the wire codec --------------------- *)

let copy_file src dst =
  let ic = open_in_bin src in
  let data = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin dst in
  output_string oc data;
  close_out oc

let serve_config path =
  { Server.default_config with
    cf_workers = serve_workers;
    cf_max_queue = 64;
    cf_cache_file = Some path;
    cf_cache_save_every = 0 }

(* Boot a server on a fresh copy of the warm snapshot, so every boot loads
   the same entries. *)
let boot ~warm ~path =
  copy_file warm path;
  Server.create ~config:(serve_config path) ()

type served = {
  sv_latency_s : float array;  (* submit -> decoded reply *)
  sv_factor : float array;  (* host factor calibrated just after each reply *)
  sv_replies : Protocol.response array;
  sv_wall_s : float;
}

(* A closed loop of [clients] clients: each encodes its request, submits
   it, and sends its next request only after its reply is decoded.  Each
   reply is encoded and decoded on the worker domain that served it, which
   then calibrates the host before handing the reply over: the
   calibration is the client's think time, and it measures the core the
   request has just run on, while the other worker keeps the other core
   busy.  The main domain only sleeps on the condition variable between
   replies. *)
let closed_loop srv (requests : Protocol.request array) ~clients =
  let n = Array.length requests in
  let lock = Mutex.create () and cond = Condition.create () in
  let inbox = Queue.create () in
  let sent = Array.make n 0.0 and lat = Array.make n 0.0 and factor = Array.make n 0.0 in
  let replies = Array.make n Protocol.Pong in
  let submit i =
    sent.(i) <- now ();
    match Protocol.parse (Protocol.request_to_json requests.(i)) with
    | Ok (Protocol.Search rq) ->
        Server.submit_async srv rq ~reply:(fun resp ->
            let decoded = Protocol.response_of_json (Protocol.response_to_json resp) in
            let done_at = now () in
            let f = calibrate () in
            Mutex.lock lock;
            Queue.push (i, decoded, done_at, f) inbox;
            Condition.signal cond;
            Mutex.unlock lock)
    | Ok _ | Error _ -> failwith "request does not survive the wire codec"
  in
  let t0 = now () in
  let next = ref 0 in
  while !next < min clients n do
    submit !next;
    incr next
  done;
  for _ = 1 to n do
    Mutex.lock lock;
    while Queue.is_empty inbox do
      Condition.wait cond lock
    done;
    let i, decoded, done_at, f = Queue.pop inbox in
    Mutex.unlock lock;
    (match decoded with
    | Ok resp -> replies.(i) <- resp
    | Error e -> failwith ("reply does not survive the wire codec: " ^ e));
    lat.(i) <- done_at -. sent.(i);
    factor.(i) <- f;
    if !next < n then begin
      submit !next;
      incr next
    end
  done;
  { sv_latency_s = lat; sv_factor = factor; sv_replies = replies; sv_wall_s = now () -. t0 }

let pairs ~seed =
  let seeds = request_seeds ~seed serve_pairs in
  Array.mapi (fun i s -> (networks.(i mod Array.length networks), s)) seeds

let request_of ~id (network, seed) device =
  Protocol.request ~network ~device:device.Device.short_name ~candidates:serve_candidates ~seed id

(* Untimed warm-up: serve each pair once on CPU, then shut down, which
   writes the snapshot the timed server boots from.  Returns its path. *)
let warm_snapshot ~seed =
  let warm = Filename.concat out_dir (Printf.sprintf "warm-%d.snap" (Unix.getpid ())) in
  if Sys.file_exists warm then Sys.remove warm;
  let srv = Server.create ~config:(serve_config warm) () in
  let reqs = Array.mapi (fun i p -> request_of ~id:(Printf.sprintf "warm%d" i) p Device.i7) (pairs ~seed) in
  let out = closed_loop srv reqs ~clients:serve_clients in
  ignore (Server.shutdown srv);
  Array.iter
    (function
      | Protocol.Result _ -> ()
      | r -> failwith ("warm-up request failed: " ^ Protocol.response_to_json r))
    out.sv_replies;
  warm

(* A one-shot result as the daemon would encode it. *)
let payload_of ~id (r : Unified_search.result) =
  { Protocol.rs_id = id;
    rs_best_plan = Unified_search.plans_signature r.r_best.Unified_search.cd_plans;
    rs_best_latency_us = 1e6 *. r.r_best.cd_latency_s;
    rs_baseline_latency_us = 1e6 *. r.r_baseline.Pipeline.ev_latency_s;
    rs_speedup = Unified_search.speedup r;
    rs_explored = r.r_explored;
    rs_rejected = r.r_rejected;
    rs_quarantined = List.length r.r_quarantined;
    rs_evaluated = r.r_evaluated;
    rs_complete = r.r_complete;
    rs_degraded = false;
    rs_retries = 0;
    rs_cache_hits = 0;
    rs_wall_ms = 0.0 }

(* The one-shot search a served reply must equal, encoded the same way.
   Searches of one pair share a context across devices: cached values are
   pure functions of their keys, so sharing changes hit counts only.  The
   pairs are shared out between this domain and one more (the server has
   shut down by then, so two domains are busy at most); the checks are
   counted on this domain. *)
let oneshot_payloads ~seed =
  let ps = pairs ~seed in
  let one (network, s) =
    let ctx = Eval_ctx.create () in
    List.map
      (fun device ->
        let se = { (setup ~device network s) with se_ctx = ctx } in
        let r =
          Unified_search.search ~candidates:serve_candidates ~ctx ~rng:(Rng.split se.se_rng)
            ~device ~probe:se.se_probe se.se_model
        in
        ((network, s, device.Device.short_name), payload_of ~id:"" r, winner_problems se ~device r))
      devices
  in
  let next = Atomic.make 0 in
  let rec work acc =
    let i = Atomic.fetch_and_add next 1 in
    if i >= Array.length ps then acc else work (one ps.(i) @ acc)
  in
  let other = Domain.spawn (fun () -> work []) in
  let mine = work [] in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (((network, s, dev) as key), p, problems) ->
      operation (problems = []) "one-shot %s seed %d on %s: %s" network s dev (String.concat "; " problems);
      Hashtbl.replace tbl key p)
    (mine @ Domain.join other);
  tbl

(* Every served reply is a complete, undegraded result equal to the
   one-shot search after the same wire encoding. *)
let check_replies ~seed (requests : Protocol.request array) replies =
  let oneshot = oneshot_payloads ~seed in
  Array.iteri
    (fun i resp ->
      let rq = requests.(i) in
      let want = Hashtbl.find oneshot (rq.Protocol.rq_network, rq.rq_seed, rq.rq_device) in
      let ok =
        match resp with
        | Protocol.Result got ->
            let want =
              { want with
                Protocol.rs_id = got.Protocol.rs_id;
                rs_cache_hits = got.rs_cache_hits;
                rs_wall_ms = got.rs_wall_ms }
            in
            Protocol.response_to_json (Protocol.Result want)
            = Protocol.response_to_json (Protocol.Result got)
        | _ -> false
      in
      operation ok "served %s equals the one-shot search (%s)" rq.rq_id
        (Protocol.response_to_json resp))
    replies

(* [n] requests: request i serves pair i mod serve_pairs on device
   (i / serve_pairs) mod 4, so the pairs sweep CPU, GPU, mCPU and mGPU in
   turn and then start over. *)
let serve_requests ~seed n =
  let ps = pairs ~seed and devs = Array.of_list devices in
  Array.init n (fun i ->
      let dev = devs.(i / serve_pairs mod Array.length devs) in
      request_of ~id:(Printf.sprintf "r%d" i) ps.(i mod serve_pairs) dev)

let measure_serve ~seed ~seconds =
  let warm, warm_s = timed (fun () -> warm_snapshot ~seed) in
  let path = warm ^ ".boot" in
  (* Set-up repetitions, half before and half after the timed window.
     Each is the mean of a batch of boots, each boot from a collected heap
     and a fresh copy of the snapshot, and is normalized by the calibration
     just before it. *)
  let batch = 5 in
  let reps = max 2 (4 * seconds / batch) in
  let setup_reps () =
    List.init (reps / 2) (fun _ ->
        let f = calibrate () in
        let total = ref 0.0 in
        for _ = 1 to batch do
          copy_file warm path;
          Gc.full_major ();
          let srv, dt = timed (fun () -> Server.create ~config:(serve_config path) ()) in
          ignore (Server.shutdown srv);
          total := !total +. dt
        done;
        (!total /. float_of_int batch, f))
  in
  let before, before_s = timed setup_reps in
  let requests = serve_requests ~seed (requests_per_run ~seconds) in
  let n = Array.length requests in
  let srv = boot ~warm ~path in
  Gc.full_major ();
  let out = closed_loop srv requests ~clients:serve_clients in
  let rss = peak_rss_mb () in
  ignore (Server.shutdown srv);
  let after, after_s = timed setup_reps in
  let (), check_s = timed (fun () -> check_replies ~seed requests out.sv_replies) in
  Printf.printf "phases: warm-up %.1f s, set-ups %.1f s, timed loop %.1f s, reply checks %.1f s\n" warm_s
    (before_s +. after_s) out.sv_wall_s check_s;
  List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ warm; path ];
  let evaluated =
    Array.fold_left
      (fun ev -> function Protocol.Result r -> ev + r.Protocol.rs_evaluated | _ -> ev)
      0 out.sv_replies
  in
  let distinct = Hashtbl.create 16 in
  Array.iteri
    (fun i -> function
      | Protocol.Result r ->
          let rq = requests.(i) in
          Hashtbl.replace distinct (rq.Protocol.rq_network, rq.rq_seed, rq.rq_device) r.Protocol.rs_speedup
      | _ -> ())
    out.sv_replies;
  let setup_s, setup_f = Array.split (Array.of_list (before @ after)) in
  print_host_factor ~how:"one on the serving worker after each reply" out.sv_factor;
  report_end_to_end
    ~n_note:(Printf.sprintf "n=%d requests, %d clients" n serve_clients)
    ~setup_note:"median over batches of 5 Server.create from the warm snapshot" ~setup_s ~setup_f
    ~lat_s:out.sv_latency_s ~lat_f:out.sv_factor ~evaluated ~wall_s:out.sv_wall_s
    ~wall_f:(latency_weighted_factor out.sv_latency_s out.sv_factor);
  report ~n:(Hashtbl.length distinct) "best_speedup" "x"
    (Stat.geomean (Array.of_seq (Hashtbl.to_seq_values distinct)))
    ~note:"geomean over distinct (network, seed, device)";
  report "peak_rss_mb" "MB" rss

(* --- traced run: per-layer metrics -------------------------------------- *)

let kinds = [ "dense"; "grouped"; "depthwise"; "pointwise" ]

let conv_kind (cv : Layer.conv) ~ci =
  let s = Tensor.shape cv.Layer.cv_w.Layer.p_value in
  if cv.cv_groups > 1 && cv.cv_groups = ci then "depthwise"
  else if cv.cv_groups > 1 then "grouped"
  else if s.(2) = 1 && s.(3) = 1 then "pointwise"
  else "dense"

(* Per-layer accumulators for one traced run. *)
type acc = {
  mutable a_candidates : int;
  conv_s : (string, float) Hashtbl.t;
  conv_bwd_s : (string, float) Hashtbl.t;
  conv_macs : (string, int) Hashtbl.t;
  mutable a_rebuild_s : float list;
  mutable a_forward_s : float list;
  mutable a_backward_s : float list;
  mutable a_pass_bytes : float list;
  mutable a_score_s : float list;
  mutable a_score_bytes : float list;
  mutable a_minor : int list;
  mutable a_major : int list;
  mutable a_static_s : float list;
  mutable a_static_rejects : int;
  mutable a_eval_cold_s : float list;
  mutable a_eval_warm_s : float list;
  mutable a_tune_s : float list;
  oracle_checks : (string, int) Hashtbl.t;  (* per kind *)
  mutable a_oracle_mismatches : int;
}

let new_acc () =
  { a_candidates = 0;
    conv_s = Hashtbl.create 4;
    conv_bwd_s = Hashtbl.create 4;
    conv_macs = Hashtbl.create 4;
    a_rebuild_s = [];
    a_forward_s = [];
    a_backward_s = [];
    a_pass_bytes = [];
    a_score_s = [];
    a_score_bytes = [];
    a_minor = [];
    a_major = [];
    a_static_s = [];
    a_static_rejects = 0;
    a_eval_cold_s = [];
    a_eval_warm_s = [];
    a_tune_s = [];
    oracle_checks = Hashtbl.create 4;
    a_oracle_mismatches = 0 }

let bump tbl k v = Hashtbl.replace tbl k (v +. Option.value (Hashtbl.find_opt tbl k) ~default:0.0)
let bump_int tbl k v = Hashtbl.replace tbl k (v + Option.value (Hashtbl.find_opt tbl k) ~default:0)

let image0 t =
  let s = Tensor.shape t in
  Tensor.init [| s.(1); s.(2); s.(3) |] (fun i -> Tensor.get t [| 0; i.(0); i.(1); i.(2) |])

(* The independent kernel oracle: the same convolution lowered to a loop
   nest under its baseline schedule and interpreted, on batch image 0. *)
let loop_nest_agrees (cv : Layer.conv) ~input ~output =
  let w = cv.Layer.cv_w.Layer.p_value in
  let ws = Tensor.shape w and os = Tensor.shape output in
  let ci = (Tensor.shape input).(1) and k = ws.(2) in
  let nest =
    Loop_nest.conv_nest_of_dims ~co:ws.(0) ~ci ~oh:os.(2) ~ow:os.(3) ~k ~stride:cv.cv_stride
      ~groups:cv.cv_groups
  in
  let prog = Loop_nest.lower nest (Loop_nest.baseline_schedule nest) in
  let padded = Loop_nest.pad_input (image0 input) ~pad:cv.cv_pad in
  let hp = ((os.(2) - 1) * cv.cv_stride) + k and wp = ((os.(3) - 1) * cv.cv_stride) + k in
  let cropped = Tensor.init [| ci; hp; wp |] (fun i -> Tensor.get padded i) in
  let got = Tensor.zeros [| ws.(0); os.(2); os.(3) |] in
  Loop_nest.run prog ~output:got ~weight:w ~input:cropped;
  let want = image0 output in
  let scale = Array.fold_left (fun m x -> Float.max m (Float.abs x)) 1.0 (Tensor.data want) in
  let worst = ref 0.0 in
  Array.iteri
    (fun i x -> worst := Float.max !worst (Float.abs (x -. (Tensor.data got).(i))))
    (Tensor.data want);
  !worst <= 1e-9 *. scale

let oracle_mac_limit = 1_500_000

(* Nodes the oracle can afford: dilation 1, square kernel, and at most
   [oracle_mac_limit] MACs per image. *)
let oracle_eligible (cv : Layer.conv) ~ws ~macs_per_image =
  cv.Layer.cv_dilation = 1 && ws.(2) = ws.(3) && macs_per_image <= oracle_mac_limit

let alloc () = Gc.allocated_bytes ()

(* Replay one candidate serially through every layer's public functions,
   each call under its own span. *)
let replay_candidate tr acc ~request ~device ~fo_seed ~oracle_rng (s : session) plans =
  let span name f = Tracer.with_span tr name f in
  Tracer.with_span tr ~request "search.replay" @@ fun () ->
  let static, dt = timed (fun () -> span "analysis.static_check" (fun () -> Static_check.candidate s.se_model plans)) in
  acc.a_static_s <- dt :: acc.a_static_s;
  match static with
  | Some _ -> acc.a_static_rejects <- acc.a_static_rejects + 1
  | None ->
      acc.a_candidates <- acc.a_candidates + 1;
      let impls = Array.map (fun p -> p.Site_plan.sp_impl) plans in
      let cand, dt =
        timed (fun () -> span "nn.rebuild" (fun () -> Models.rebuild s.se_model (Rng.create fo_seed) impls))
      in
      acc.a_rebuild_s <- dt :: acc.a_rebuild_s;
      (* Starting from an empty minor heap makes the promoted-word count,
         and so the allocated bytes, a function of this call alone. *)
      Gc.minor ();
      let q0 = Gc.quick_stat () and b0 = alloc () in
      let _, dt = timed (fun () -> span "fisher.score" (fun () -> Fisher.score cand s.se_probe)) in
      let b1 = alloc () and q1 = Gc.quick_stat () in
      acc.a_score_s <- dt :: acc.a_score_s;
      acc.a_score_bytes <- (b1 -. b0) :: acc.a_score_bytes;
      acc.a_minor <- (q1.Gc.minor_collections - q0.Gc.minor_collections) :: acc.a_minor;
      acc.a_major <- (q1.Gc.major_collections - q0.Gc.major_collections) :: acc.a_major;
      (* The same pass split into forward and backward. *)
      let g = cand.Models.graph in
      Graph.zero_grads g;
      Gc.minor ();
      let b0 = alloc () in
      let run, dt = timed (fun () -> span "nn.forward" (fun () -> Graph.forward g s.se_probe.Train.images)) in
      acc.a_forward_s <- dt :: acc.a_forward_s;
      let (), dt =
        timed (fun () ->
            span "nn.backward" (fun () ->
                let _, grad =
                  Ops.softmax_cross_entropy ~logits:(Graph.output run) ~labels:s.se_probe.Train.labels
                in
                Graph.backward g run ~loss_grad:grad))
      in
      acc.a_backward_s <- dt :: acc.a_backward_s;
      acc.a_pass_bytes <- (alloc () -. b0) :: acc.a_pass_bytes;
      (* Each convolution node's kernels, replayed on the pass's tensors.
         The oracle checks one eligible node of every kind the candidate
         has, drawn uniformly with the seeded [oracle_rng]. *)
      let picked = Hashtbl.create 4 and eligible = Hashtbl.create 4 in
      Array.iter
        (fun (node : Graph.node) ->
          match node.Graph.op with
          | Graph.Conv cv ->
              let input = Graph.activation run (List.hd node.inputs) in
              let is = Tensor.shape input in
              let kind = conv_kind cv ~ci:is.(1) in
              let p =
                { Ops.stride = cv.Layer.cv_stride; pad = cv.cv_pad; groups = cv.cv_groups;
                  dilation = cv.cv_dilation }
              in
              let weight = cv.cv_w.Layer.p_value in
              let out, dt =
                timed (fun () ->
                    span "tensor.conv2d" (fun () ->
                        Ops.conv2d ~input ~weight ~bias:(Option.map (fun b -> b.Layer.p_value) cv.cv_b) p))
              in
              bump acc.conv_s kind dt;
              let ws = Tensor.shape weight and os = Tensor.shape out in
              let macs = os.(0) * os.(1) * os.(2) * os.(3) * ws.(1) * ws.(2) * ws.(3) in
              bump_int acc.conv_macs kind macs;
              (match Graph.activation_grad run node.id with
              | gout ->
                  let _, dt =
                    timed (fun () ->
                        span "tensor.conv2d_backward" (fun () -> Ops.conv2d_backward ~input ~weight ~gout p))
                  in
                  bump acc.conv_bwd_s kind dt
              | exception Invalid_argument _ -> ());
              if oracle_eligible cv ~ws ~macs_per_image:(macs / os.(0)) then begin
                (* Reservoir sampling: the k-th eligible node of a kind
                   replaces the pick with probability 1/k. *)
                bump_int eligible kind 1;
                if Rng.int oracle_rng (Hashtbl.find eligible kind) = 0 then
                  Hashtbl.replace picked kind (node.label, cv, input, out)
              end
          | _ -> ())
        g.Graph.nodes;
      List.iter
        (fun kind ->
          match Hashtbl.find_opt picked kind with
          | None -> ()
          | Some (label, (cv : Layer.conv), input, output) ->
              bump_int acc.oracle_checks kind 1;
              let ok = span "oracle.loop_nest" (fun () -> loop_nest_agrees cv ~input ~output) in
              if not ok then acc.a_oracle_mismatches <- acc.a_oracle_mismatches + 1;
              operation ok "Ops.conv2d at %s (%s, groups %d, stride %d) equals Loop_nest.run" label kind
                cv.cv_groups cv.cv_stride)
        kinds;
      Graph.zero_grads g;
      (* Cost: the whole candidate on a cold then a warm context, and the
         autotuner on a sample of its workloads. *)
      let ctx = Eval_ctx.create ~device () in
      let _, dt = timed (fun () -> span "npte.evaluate" (fun () -> Pipeline.evaluate ~ctx device s.se_model ~plans)) in
      acc.a_eval_cold_s <- dt :: acc.a_eval_cold_s;
      let _, dt = timed (fun () -> span "npte.evaluate" (fun () -> Pipeline.evaluate ~ctx device s.se_model ~plans)) in
      acc.a_eval_warm_s <- dt :: acc.a_eval_warm_s;
      List.iteri
        (fun i (w : Conv_impl.workload) ->
          if i mod 4 = 0 then begin
            let sp = Conv_impl.workload_out_spatial w in
            let nest =
              Loop_nest.conv_nest_of_dims ~co:w.Conv_impl.w_out_channels ~ci:w.w_in_channels ~oh:sp
                ~ow:sp ~k:w.w_kernel ~stride:w.w_stride ~groups:w.w_groups
            in
            let _, dt = timed (fun () -> span "hw.tune" (fun () -> Autotune.tune device nest)) in
            acc.a_tune_s <- dt :: acc.a_tune_s
          end)
        (Models.cost_workloads cand);
      operation true "replayed candidate"

type traced_search = {
  ts_counters : (string * int) list;
  ts_phases : (string * float) list;  (* program span name -> seconds *)
  ts_result : Unified_search.result;
  ts_untraced_s : float;
  ts_traced_s : float;
}

(* One search, alternately untraced and traced (with the program's
   recorder and the benchmark's span around it), twice each.  The ratio of
   the fastest traced to the fastest untraced wall is the tracing
   overhead; the first traced run supplies the spans and counters. *)
let traced_search tr wl ~request ~device ~prepare network seed =
  let traced = ref [] in
  let search ?obs () =
    let s = prepare (setup ?obs ~device network seed) in
    match obs with
    | None -> snd (timed (fun () -> run_search wl s ~device))
    | Some obs ->
        Tracer.with_span tr ~request "search.request" (fun () ->
            let r, dt = timed (fun () -> run_search wl s ~device) in
            Tracer.adopt_program_spans tr (Obs.events obs);
            check_search "traced" s ~device r;
            traced := r :: !traced;
            dt)
  in
  let u1 = search () in
  let obs = Obs.create () in
  let t1 = search ~obs () in
  let result = List.hd !traced in
  let metrics = Obs.metrics obs in
  let u2 = search () in
  let t2 = search ~obs:(Obs.create ()) () in
  { ts_counters = Metrics.counters metrics;
    ts_phases =
      List.filter_map
        (fun (name, h) ->
          if String.length name > 5 && String.sub name 0 5 = "span." then
            Some (String.sub name 5 (String.length name - 5), h.Metrics.h_sum_s)
          else None)
        (Metrics.histograms metrics);
    ts_result = result;
    ts_untraced_s = Float.min u1 u2;
    ts_traced_s = Float.min t1 t2 }

let codec_round_trip_us (payload : Protocol.result_payload) rq =
  let reps = 200 in
  let (), dt =
    timed (fun () ->
        for _ = 1 to reps do
          ignore (Protocol.parse (Protocol.request_to_json rq));
          ignore (Protocol.response_of_json (Protocol.response_to_json (Protocol.Result payload)))
        done)
  in
  1e6 *. dt /. float_of_int reps

let sumi l = List.fold_left ( + ) 0 l
let meanl l = Stat.mean (Array.of_list l)
let ms x = 1000.0 *. x
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let phases = [ "search"; "baseline"; "generate"; "evaluate"; "legality"; "fisher"; "cost"; "select" ]
let layers = [ "search"; "analysis"; "nn"; "fisher"; "tensor"; "npte"; "hw"; "serve"; "robust"; "oracle" ]

(* Serve-specific layer numbers; zero on the one-shot workloads, which do
   not go through the daemon. *)
type serve_layer = {
  sl_overhead_ms : float array;
  sl_rejected : int;
  sl_retried : int;
  sl_degraded : int;
  sl_utilization : float;
  sl_idle_ms : float;  (* pool wall x workers - session busy time *)
}

let serve_layer_traced tr ~seed =
  Tracer.with_span tr ~request:"serve" "serve.session" @@ fun () ->
  let warm = warm_snapshot ~seed in
  let path = warm ^ ".boot" in
  let requests = serve_requests ~seed (List.length devices * serve_pairs) in
  let srv = Tracer.with_span tr "robust.boot" (fun () -> boot ~warm ~path) in
  let out = closed_loop srv requests ~clients:serve_clients in
  let st = Server.shutdown srv in
  check_replies ~seed requests out.sv_replies;
  let overhead, busy =
    Array.fold_left
      (fun (o, b) (i, resp) ->
        match resp with
        | Protocol.Result r -> ((ms out.sv_latency_s.(i) -. r.Protocol.rs_wall_ms) :: o, b +. r.rs_wall_ms)
        | _ -> (o, b))
      ([], 0.0)
      (Array.mapi (fun i r -> (i, r)) out.sv_replies)
  in
  ( warm,
    path,
    { sl_overhead_ms = Array.of_list overhead;
      sl_rejected = st.Server.st_rejected;
      sl_retried = st.st_retried;
      sl_degraded = st.st_degraded;
      sl_utilization = busy /. (ms out.sv_wall_s *. float_of_int serve_workers);
      sl_idle_ms = Float.max 0.0 ((ms out.sv_wall_s *. float_of_int serve_workers) -. busy) } )

let measure_traced name ~seed =
  let tr = Tracer.create () in
  let is_serve = name = "serve-warm" in
  let wl =
    match name with
    | "serve-warm" ->
        { sw_networks = networks;
          sw_candidates = serve_candidates;
          sw_budget = None;
          sw_replayed = 3 }
    | _ -> search_cold
  in
  let seeds = request_seeds ~seed 8 in
  let network i = wl.sw_networks.(i mod Array.length wl.sw_networks) in
  let pair i = if is_serve then (pairs ~seed).(i) else (network i, seeds.(i)) in
  (* Replay a seeded sample of the workload's candidates first, while no
     other domain has run: allocation counts are then exact. *)
  let acc = new_acc () in
  let gen_s = ref 0.0 and generated = ref 0 in
  let oracle_rng = Rng.create (seed + 31) in
  let fo_rng = Rng.create (seed + 17) in
  let reference_s = ref [] in
  List.iter
    (fun i ->
      let network, s = pair i in
      let se = setup ~device:Device.i7 network s in
      let fo_seed = Rng.int fo_rng 1_000_000_000 in
      (* The reference pass, timed apart from candidate generation. *)
      let full = Array.map (fun _ -> Conv_impl.Full) se.se_model.Models.sites in
      let reference = Models.rebuild se.se_model (Rng.create fo_seed) full in
      let _, dt =
        timed (fun () ->
            Tracer.with_span tr "fisher.reference_score" (fun () -> Fisher.score reference se.se_probe))
      in
      reference_s := dt :: !reference_s;
      let gen_rng = Rng.create (s + 1) in
      let fresh, dt =
        timed (fun () ->
            Tracer.with_span tr "search.generate" (fun () ->
                List.init wl.sw_candidates (fun _ ->
                    Unified_search.random_plans gen_rng se.se_model ~mutate_prob:0.5)))
      in
      gen_s := !gen_s +. dt;
      generated := !generated + wl.sw_candidates;
      List.iteri
        (fun k plans ->
          if k < wl.sw_replayed then
            replay_candidate tr acc ~request:(Printf.sprintf "replay%d.%d" i k) ~device:Device.i7
              ~fo_seed ~oracle_rng se plans)
        fresh)
    traced_requests;
  (* The daemon's layers next: its warm snapshot then seeds the traced
     searches, which run as a warm session on another device would. *)
  let serve = if is_serve then Some (serve_layer_traced tr ~seed) else None in
  let device, prepare =
    match serve with
    | Some (warm, _, _) ->
        ( Device.gtx1080ti,
          fun s ->
            ignore (Eval_ctx.load_caches ~path:warm s.se_ctx);
            s )
    | None -> (Device.i7, Fun.id)
  in
  let searches =
    List.map
      (fun i ->
        let network, s = pair i in
        traced_search tr wl ~request:(Printf.sprintf "search%d" i) ~device ~prepare network s)
      traced_requests
  in
  (* Codec and snapshot load on this workload's own results and caches. *)
  let first = (List.hd searches).ts_result in
  let rq = request_of ~id:"trace" (network 0, seeds.(0)) device in
  let codec_us = Tracer.with_span tr "serve.codec" (fun () -> codec_round_trip_us (payload_of ~id:"trace" first) rq) in
  let snapshot =
    match serve with
    | Some (warm, _, _) -> warm
    | None ->
        let path = Filename.concat out_dir (Printf.sprintf "trace-%d.snap" (Unix.getpid ())) in
        let s = setup ~device (network 0) seeds.(0) in
        ignore (run_search wl s ~device);
        operation (Eval_ctx.save_caches ~path s.se_ctx = Ok ()) "snapshot %s saved" path;
        path
  in
  let loaded, load_s =
    timed (fun () -> Tracer.with_span tr "robust.snapshot_load" (fun () -> Eval_ctx.load_caches ~path:snapshot (Eval_ctx.create ())))
  in
  operation
    (match loaded with Ok n -> n > 0 | Error _ -> false)
    "snapshot %s loads back" snapshot;
  (match serve with Some (_, boot, _) -> if Sys.file_exists boot then Sys.remove boot | None -> ());
  if Sys.file_exists snapshot then Sys.remove snapshot;
  (* --- per-layer metrics --- *)
  let nsearch = List.length searches in
  let counter k =
    sumi (List.map (fun ts -> Option.value (List.assoc_opt k ts.ts_counters) ~default:0) searches)
  in
  let cand = float_of_int (max 1 acc.a_candidates) in
  List.iter
    (fun k ->
      let f tbl = Option.value (Hashtbl.find_opt tbl k) ~default:0.0 in
      let macs = Option.value (Hashtbl.find_opt acc.conv_macs k) ~default:0 in
      report ~n:acc.a_candidates ("tensor.conv2d_ms." ^ k) "ms" (ms (f acc.conv_s) /. cand);
      report ~n:acc.a_candidates ("tensor.conv2d_backward_ms." ^ k) "ms" (ms (f acc.conv_bwd_s) /. cand);
      report ~n:acc.a_candidates ("tensor.conv2d_macs." ^ k) "count" (float_of_int macs /. cand);
      report ~n:acc.a_candidates ("tensor.conv2d_gmac_per_s." ^ k) "GMAC/s"
        (if f acc.conv_s > 0.0 then float_of_int macs /. f acc.conv_s /. 1e9 else 0.0))
    kinds;
  let nc = acc.a_candidates in
  report ~n:nc "nn.rebuild_ms" "ms" (ms (meanl acc.a_rebuild_s));
  report ~n:nc "nn.forward_ms" "ms" (ms (meanl acc.a_forward_s));
  report ~n:nc "nn.backward_ms" "ms" (ms (meanl acc.a_backward_s));
  report ~n:nc "nn.alloc_mb_per_pass" "MB" (meanl acc.a_pass_bytes /. 1e6);
  report ~n:nc "fisher.score_ms" "ms" (ms (meanl acc.a_score_s));
  report ~n:(List.length !reference_s) "fisher.reference_score_ms" "ms" (ms (meanl !reference_s));
  report ~n:nc "fisher.alloc_mb_per_score" "MB" (meanl acc.a_score_bytes /. 1e6);
  report ~n:nc "fisher.minor_gcs_per_score" "count" (meanl (List.map float_of_int acc.a_minor));
  report ~n:nc "fisher.major_gcs_per_score" "count" (meanl (List.map float_of_int acc.a_major));
  report ~n:nsearch "fisher.scores_per_search" "count"
    (float_of_int (counter "cache.fisher.misses" + nsearch) /. float_of_int nsearch);
  report ~n:(List.length acc.a_static_s) "analysis.static_check_us" "us" (1e6 *. meanl acc.a_static_s);
  report ~n:nsearch "analysis.static_reject_frac" "ratio"
    (ratio (counter "analysis.static_reject") (counter "analysis.static_checked"));
  report ~n:!generated "search.generate_ms_per_candidate" "ms" (ms !gen_s /. float_of_int (max 1 !generated));
  let rejected = counter "search.fisher_rejected" and ranked = counter "search.cost_ranked" in
  report ~n:nsearch "search.fisher_reject_frac" "ratio" (ratio rejected (rejected + ranked));
  report ~n:nsearch "search.survivor_frac" "ratio" (ratio ranked (counter "analysis.static_checked"));
  List.iter
    (fun p ->
      let total = List.fold_left (fun a ts -> a +. Option.value (List.assoc_opt p ts.ts_phases) ~default:0.0) 0.0 searches in
      report ~n:nsearch ("search.phase_ms." ^ p) "ms" (ms total /. float_of_int nsearch))
    phases;
  report ~n:(List.length acc.a_eval_cold_s) "npte.evaluate_ms_cold" "ms" (ms (meanl acc.a_eval_cold_s));
  report ~n:(List.length acc.a_eval_warm_s) "npte.evaluate_ms_warm" "ms" (ms (meanl acc.a_eval_warm_s));
  report ~n:(List.length acc.a_tune_s) "hw.tune_ms" "ms" (ms (meanl acc.a_tune_s));
  let tunes = counter "pipeline.cost_evals" in
  report ~n:tunes "hw.configs_per_tune" "count" (ratio (counter "engine.tune_configs") tunes);
  report ~n:nsearch "hw.tunes_per_request" "count" (ratio tunes nsearch);
  let hit_frac h m = ratio (counter h) (counter h + counter m) in
  report ~n:nsearch "engine.fisher_memo_hit_frac" "ratio" (hit_frac "cache.fisher.hits" "cache.fisher.misses");
  report ~n:nsearch "engine.cost_memo_hit_frac" "ratio" (hit_frac "cache.cost.hits" "cache.cost.misses");
  let util, idle =
    match serve with
    | Some (_, _, sl) -> (sl.sl_utilization, sl.sl_idle_ms)
    | None -> (1.0, 0.0)  (* serial searches: one busy domain, no rounds *)
  in
  report ~n:nsearch "engine.worker_utilization" "ratio" util;
  report ~n:nsearch "engine.round_idle_ms" "ms" idle;
  report "serve.codec_us" "us" codec_us ~note:"request + reply encode and decode";
  let sl =
    match serve with
    | Some (_, _, sl) -> sl
    | None ->
        { sl_overhead_ms = [||]; sl_rejected = 0; sl_retried = 0; sl_degraded = 0; sl_utilization = 0.0;
          sl_idle_ms = 0.0 }
  in
  report ~n:(Array.length sl.sl_overhead_ms) "serve.overhead_ms_p50" "ms"
    (if sl.sl_overhead_ms = [||] then 0.0 else Stat.median sl.sl_overhead_ms);
  report "robust.snapshot_load_ms" "ms" (ms load_s);
  report "serve.rejected" "count" (float_of_int sl.sl_rejected);
  report "serve.retried" "count" (float_of_int sl.sl_retried);
  report "serve.degraded" "count" (float_of_int sl.sl_degraded);
  report "robust.quarantined" "count"
    (float_of_int (sumi (List.map (fun ts -> List.length ts.ts_result.Unified_search.r_quarantined) searches)));
  let checks k = Option.value (Hashtbl.find_opt acc.oracle_checks k) ~default:0 in
  (* Every conv kind the replay ran is checked by the oracle at least once. *)
  List.iter
    (fun k ->
      if Hashtbl.mem acc.conv_macs k then
        operation (checks k > 0) "kernel oracle checked a replayed %s convolution (%d checks)" k (checks k))
    kinds;
  let oracle_total = sumi (List.map checks kinds) in
  operation (oracle_total > 0) "kernel oracle checked at least one convolution";
  report ~n:oracle_total "oracle.kernel_mismatches" "count" (float_of_int acc.a_oracle_mismatches);
  let untraced = Stat.sum (Array.of_list (List.map (fun ts -> ts.ts_untraced_s) searches)) in
  let traced = Stat.sum (Array.of_list (List.map (fun ts -> ts.ts_traced_s) searches)) in
  report ~n:nsearch "obs.trace_overhead_frac" "ratio" ((traced /. untraced) -. 1.0);
  let self = Tracer.self_time_by_layer tr in
  List.iter
    (fun l -> report ("layer.self_ms." ^ l) "ms" (ms (Option.value (Hashtbl.find_opt self l) ~default:0.0)))
    layers;
  (* The exact work counts two traced runs of one seed must repeat. *)
  Printf.printf "work counts: macs=[%s] oracle_checks=[%s] fisher_passes=%d tunes=%d tune_configs=%d generated=%d rejected=%d alloc_bytes=[%s]\n"
    (String.concat ";"
       (List.map (fun k -> string_of_int (Option.value (Hashtbl.find_opt acc.conv_macs k) ~default:0)) kinds))
    (String.concat ";" (List.map (fun k -> string_of_int (checks k)) kinds))
    (counter "cache.fisher.misses" + nsearch)
    tunes (counter "engine.tune_configs") (counter "search.generated") rejected
    (String.concat ";" (List.map (Printf.sprintf "%.0f") (List.rev acc.a_score_bytes)));
  let trace_file = Filename.concat out_dir (Printf.sprintf "trace-%s-%d.jsonl" name seed) in
  Tracer.write tr trace_file;
  Printf.printf "trace: %d spans written to %s\n" (List.length (Tracer.spans tr)) trace_file

(* --- entry point --------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload search-cold|serve-warm --seed N --seconds S --trace 0|1\n\
    \       bench.exe --self-test";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | [] -> acc
    | "--self-test" :: rest -> parse (("self-test", "1") :: acc) rest
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = List.assoc_opt k opts in
  let int_opt k = Option.bind (get k) int_of_string_opt in
  (match Stat.self_test () with
  | [] -> ()
  | bad ->
      prerr_endline ("perfbench: statistics self-test failed: " ^ String.concat ", " bad);
      exit 1);
  if get "self-test" <> None then begin
    print_endline "statistics self-test passed";
    exit 0
  end;
  let workload = match get "workload" with Some w when why w <> "" -> w | _ -> usage () in
  let seed = match int_opt "seed" with Some s -> s | None -> usage () in
  let seconds = match int_opt "seconds" with Some s when s > 0 -> s | _ -> usage () in
  let trace = match get "trace" with Some "0" -> false | Some "1" -> true | _ -> usage () in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  Printf.printf "workload %s (seed %d, %d s, trace %b): %s\n%!" workload seed seconds trace (why workload);
  if trace then measure_traced workload ~seed
  else begin
    match workload with
    | "search-cold" -> measure_search workload search_cold ~seed ~seconds
    | _ -> measure_serve ~seed ~seconds
  end;
  print_result ()
