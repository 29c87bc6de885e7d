(* oracle_cold and oracle_warm: load from a live `fatnet serve` on
   fig5 / org_544 (one domain, --no-cache), every answer checked
   bit-for-bit against an in-process evaluation of the same λ.

   cold: every λ is fresh, so the daemon's memo never hits and each
   request pays Eval.mean_into or the Eval.quantile/Tail path.
   warm: a few hundred λ, filled into the memo during set-up, so the
   server loop, the protocol codec and the memo probe do the work. *)

open Common
module Eval = Fatnet_model.Eval
module Scenario = Fatnet_scenario.Scenario
module Protocol = Fatnet_serve.Protocol
module Oracle = Fatnet_serve.Oracle

type req = Lat of float | Qnt of float | Sat

let req_text = function
  | Lat l -> Printf.sprintf {|{"op": "latency", "lambda": %s}|} (Json.shortest_float l)
  | Qnt l -> Printf.sprintf {|{"op": "quantile", "lambda": %s, "q": 0.99}|} (Json.shortest_float l)
  | Sat -> {|{"op": "saturation"}|}

type line = { reqs : req array; batched : bool; text : string }

let line_of ~batched reqs =
  let body = String.concat ", " (Array.to_list (Array.map req_text reqs)) in
  { reqs; batched; text = (if batched then "[" ^ body ^ "]" else body) ^ "\n" }

(* ------------------------------------------------------------------ *)
(* Answers are kept raw while the clock runs and checked afterwards. *)

let answers (l : line) text =
  let n = Array.length l.reqs in
  let value_of = function
    | Json.Obj _ as o -> (
        match (Json.member "ok" o, Json.member "value" o) with
        | Some (Json.Bool true), Some (Json.Num v) -> Ok v
        | Some (Json.Bool true), Some (Json.Str "inf") -> Ok infinity
        | Some (Json.Bool true), Some (Json.Str "nan") -> Ok nan
        | _ -> (
            match Json.member "error" o with
            | Some (Json.Str e) -> Error ("ok:false: " ^ e)
            | _ -> Error "answer without a value"))
    | _ -> Error "answer element is not an object"
  in
  match Json.parse_result text with
  | Error e -> Array.make n (Error ("unparseable answer: " ^ e))
  | Ok (Json.Arr xs) when l.batched && List.length xs = n -> Array.of_list (List.map value_of xs)
  | Ok (Json.Obj _ as o) when (not l.batched) && n = 1 -> [| value_of o |]
  | Ok _ -> Array.make n (Error "answer does not mirror the request line's shape")

type checker = {
  scn : Scenario.t;
  sat : float;  (* the cold Eval.saturation_rate *)
  refs : (req, float) Hashtbl.t;  (* in-process answers computed so far *)
  mutable got : (phase * line * string) list;
}

let record ck ph l text = ck.got <- (ph, l, text) :: ck.got

let lose ph (l : line) why =
  Array.iter (fun _ -> check ph false (fun () -> why)) l.reqs

(* Compare every answer recorded since the last call with
   Eval.mean_into / Eval.quantile / Eval.saturation_rate on workspaces
   built from the same scenario, then drop them (a small heap keeps the
   client's GC out of the next timed phase). *)
let verify ck =
  let todo = Hashtbl.create 4096 in
  List.iter
    (fun (_, (l : line), _) ->
      Array.iter
        (fun r -> if r <> Sat && not (Hashtbl.mem ck.refs r) then Hashtbl.replace todo r ())
        l.reqs)
    ck.got;
  let reqs = Array.of_seq (Hashtbl.to_seq_keys todo) in
  let domains = min 2 (Eval.Pool.recommended_domains ()) in
  let wss = Array.init domains (fun _ -> Scenario.evaluator ck.scn) in
  let values =
    Eval.Pool.with_pool ~domains (fun pool ->
        Eval.Pool.map pool reqs ~f:(fun ctx r ->
            let ws = wss.(Eval.Pool.ctx_id ctx) in
            match r with
            | Lat l -> Eval.mean_into ws ~lambda_g:l
            | Qnt l -> Eval.quantile ws ~lambda_g:l ~q:0.99
            | Sat -> nan))
  in
  Array.iteri (fun i r -> Hashtbl.replace ck.refs r values.(i)) reqs;
  List.iter
    (fun (ph, (l : line), text) ->
      Array.iteri
        (fun i a ->
          let r = l.reqs.(i) in
          match a with
          | Error e -> check ph false (fun () -> e)
          | Ok v ->
              let want = if r = Sat then ck.sat else Hashtbl.find ck.refs r in
              check ph (same_bits v want) (fun () ->
                  Printf.sprintf "%s answered %h, in-process %h" (req_text r) v want))
        (answers l text))
    ck.got;
  ck.got <- [];
  Gc.full_major ()

(* ------------------------------------------------------------------ *)
(* Request generation from the seed.  λ is uniform on (0, 0.95·λ_sat]. *)

type gen = {
  rng : Random.State.t;
  lmax : float;
  used : (int64, unit) Hashtbl.t;
  working : float array;  (* empty: every λ fresh (cold) *)
}

let rec fresh_near g x =
  let l = x *. (1. -. (1e-6 *. Random.State.float g.rng 1.)) in
  let b = Int64.bits_of_float l in
  if l <= 0. || Hashtbl.mem g.used b then fresh_near g x
  else (
    Hashtbl.add g.used b ();
    l)

let fresh g = fresh_near g (g.lmax *. (1. -. Random.State.float g.rng 1.))

let lambda g =
  if Array.length g.working = 0 then fresh g
  else g.working.(Random.State.int g.rng (Array.length g.working))

(* About ¾ latency, ¼ quantile (q = 0.99), one saturation in 1000. *)
let req g =
  let v = Random.State.float g.rng 1. in
  if v < 0.001 then Sat else if v < 0.75 then Lat (lambda g) else Qnt (lambda g)

(* The figure the oracle draws: fig5's mean-latency curve at
   [figure_points] loads up to 0.95·λ_sat. *)
let figure_points = 32

let axis g k = g.lmax *. float_of_int (k + 1) /. float_of_int figure_points

(* Warm line shapes.  The base shape is BENCH_serve's client batch, an
   array of 64 requests, and it carries two thirds of the queries; one
   array of [big_array] requests, longer than the server's 64 KiB read
   buffer, carries the other third; and there is one single-request
   line per array of 64.  So per-query latency has its p50 inside the
   arrays of 64 and its p90 inside the long arrays, each away from a
   boundary between shapes, and per-request costs rather than kernel
   wake-ups set qps (a single-request round trip on the two-core
   reference host swings threefold within seconds). *)
let big_array = 1400

let arrays_per_cycle = 2 * big_array / 64

let warm_shapes =
  Array.concat
    [ Array.make arrays_per_cycle 64; Array.make arrays_per_cycle 1; [| big_array |] ]

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* The warm lines are rendered before the clock starts, [warm_cycles]
   shuffled cycles replayed in turn, so the client spends its time on
   the socket rather than on rendering requests. *)
let warm_cycles = 8

let shape_stream g =
  let lines =
    Array.concat
      (List.init warm_cycles (fun _ ->
           let cycle = Array.copy warm_shapes in
           shuffle g.rng cycle;
           Array.map
             (fun k ->
               if k = 1 then line_of ~batched:false [| req g |]
               else line_of ~batched:true (Array.init k (fun _ -> req g)))
             cycle))
  in
  let pos = ref (-1) in
  fun () ->
    pos := (!pos + 1) mod Array.length lines;
    lines.(!pos)

(* ------------------------------------------------------------------ *)
(* Phases against the daemon *)

(* Launch → first answer, plus the memo fill on warm. *)
let launch ~scenario_path ~sock ~ck ~first ~fill =
  let ph = phase "setup" in
  let t0 = now () in
  let d = Wire.spawn ~scenario_path ~sock in
  let c = Wire.connect d in
  List.iter (fun l -> record ck ph l (Wire.round_trip c l.text)) (first :: fill);
  let dt = now () -. t0 in
  (d, c, dt)

type closed = {
  done_at : (float * float * int) list;  (* answer time since start, round trip, queries *)
  queries : int;
  lines : (line * float * string) list;  (* request, round trip, answer *)
  elapsed : float;
}

let closed_phase ?(keep = false) ?(name = "closed_loop") conns ~seconds ~next ~ck =
  let ph = phase name in
  let queries = ref 0 and lines = ref [] and done_at = ref [] in
  let t0 = now () in
  Wire.closed_loop conns ~until:(t0 +. seconds)
    ~next:(fun () ->
      let l = next () in
      (l.text, l))
    ~answer:(fun l text rtt ->
      record ck ph l text;
      done_at := (now () -. t0, rtt, Array.length l.reqs) :: !done_at;
      if keep then lines := (l, rtt, text) :: !lines;
      queries := !queries + Array.length l.reqs)
    ~lost:(fun l why -> lose ph l why);
  { done_at = List.rev !done_at; queries = !queries; lines = List.rev !lines;
    elapsed = now () -. t0 }

let rtts c = List.map (fun (_, rtt, _) -> rtt) c.done_at

(* Round trip per query: every request of a line waited for its line. *)
let per_query c = List.concat_map (fun (_, rtt, q) -> List.init q (fun _ -> rtt)) c.done_at

(* A closed loop's statistics per window, the windows tiling the phase
   and about [width] seconds long; the metrics are medians across
   windows, so a stall on the shared host moves one window, not the
   run's figure. *)
type window = { w_qps : float; w_lines : float; w_p50 : float; w_p90 : float; w_p99 : float }

let windows ~width c =
  let n = max 1 (int_of_float (c.elapsed /. width)) in
  let width = c.elapsed /. float_of_int n in
  List.init n (fun i ->
      let lo = float_of_int i *. width in
      let xs = List.filter (fun (t, _, _) -> t >= lo && t < lo +. width) c.done_at in
      let rtts = per_query { c with done_at = xs } in
      {
        w_qps = float_of_int (List.fold_left (fun a (_, _, q) -> a + q) 0 xs) /. width;
        w_lines = float_of_int (List.length xs) /. width;
        w_p50 = median rtts;
        w_p90 = quantile rtts 0.9;
        w_p99 = quantile rtts 0.99;
      })

(* One figure, as a capacity planner asks for it: the saturation point
   plus the latency curve, as one array line. *)
let figure_line ~axis_of =
  line_of ~batched:true
    (Array.append [| Sat |] (Array.init figure_points (fun k -> Lat (axis_of k))))

type rung = { rate : float; sent : int; p50 : float; p99 : float; late_p99 : float;
              backlog : int; pass : bool }

(* One open-loop rung: Poisson arrivals of [make ()] lines at [rate]
   lines/s for [duration]; latency from each line's due time. *)
let rung conns g ~make ~rate ~duration ~budget ~ck =
  let ph = phase "open_loop" in
  let n = max 20 (int_of_float (rate *. duration)) in
  let t = ref 0. in
  let schedule =
    Array.init n (fun _ ->
        t := !t -. (log (1. -. Random.State.float g.rng 1.) /. rate);
        let l = make () in
        (!t, l.text, l))
  in
  let lat = ref [] and lost = ref 0 in
  let st =
    Wire.open_loop conns ~schedule ~drain:2.
      ~answer:(fun l text dt ->
        record ck ph l text;
        lat := dt :: !lat)
      ~lost:(fun l why ->
        incr lost;
        lose ph l why)
  in
  let p99 = if !lost > 0 then infinity else quantile !lat 0.99 in
  { rate; sent = n; p50 = median !lat; p99; late_p99 = quantile st.Wire.lateness 0.99;
    backlog = st.Wire.backlog_at_end;
    pass = p99 <= budget && st.Wire.backlog_at_end <= max 16 (n / 50) }

(* The ladder: fixed fractions of the closed-loop capacity. *)
let ladder_fractions = [ 0.3; 0.45; 0.6; 0.75; 0.9; 1.05; 1.2 ]

(* Climb the ladder until two rungs in a row fail (p99 over budget or a
   growing backlog); the answer is the highest passing rung's rate. *)
let ladder conns g ~make ~capacity ~budget ~duration ~ck =
  let rec climb fails acc = function
    | [] -> List.rev acc
    | _ when fails >= 2 -> List.rev acc
    | f :: rest ->
        let r = rung conns g ~make ~rate:(f *. capacity) ~duration ~budget ~ck in
        climb (if r.pass then 0 else fails + 1) (r :: acc) rest
  in
  let rungs = climb 0 [] ladder_fractions in
  (List.fold_left (fun best r -> if r.pass then Float.max best r.rate else best) 0. rungs, rungs)

let slo_budget ~cold = if cold then 0.025 else 0.001

let rung_json r =
  Json.Obj
    [
      ("rate", Json.Num r.rate); ("sent", Json.Num (float_of_int r.sent));
      ("p50_ms", Json.Num (r.p50 *. 1e3)); ("p99_ms", Json.Num (r.p99 *. 1e3));
      ("generator_late_p99_ms", Json.Num (r.late_p99 *. 1e3));
      ("backlog_at_end", Json.Num (float_of_int r.backlog)); ("pass", Json.Bool r.pass);
    ]

(* ------------------------------------------------------------------ *)
(* The traced run's in-process replay of the closed-loop stream:
   Protocol.frame_of_line → Oracle.answer_batch →
   Protocol.buf_add_frame_responses, each line timed, each rendered
   answer compared byte-for-byte with the daemon's. *)

type replay = { parse : float; answer : float; encode : float; per_line : float list; wall : float }

let replay scn ~fill (lines : (line * float * string) list) =
  let oracle = Oracle.create ~domains:1 ~memo_capacity:Wire.memo_capacity scn in
  Fun.protect ~finally:(fun () -> Oracle.shutdown oracle) @@ fun () ->
  let frame_reqs text =
    match Protocol.frame_of_line (String.sub text 0 (String.length text - 1)) with
    | Ok (Protocol.Single p) -> (false, [| p |])
    | Ok (Protocol.Batch ps) -> (true, Array.of_list ps)
    | Error e -> failwith e
  in
  List.iter
    (fun (l : line) -> ignore (Oracle.answer_batch oracle (snd (frame_reqs l.text))))
    fill;
  let parse = ref 0. and answer = ref 0. and encode = ref 0. and per_line = ref [] in
  let rendered = List.map (fun _ -> Buffer.create 4096) lines in
  (* Traced: spans only; untraced: the clock around each call. *)
  let call name f = if Trace.is_enabled !tracer then (span name f, 0.) else time f in
  Gc.compact ();
  let (), wall =
    time @@ fun () ->
    span "bench.replay" @@ fun () ->
    List.iter2
    (fun ((l : line), _, _) b ->
      let (batched, ps), tp = call "protocol.frame_of_line" (fun () -> frame_reqs l.text) in
      let rs, ta = call "oracle.answer_batch" (fun () -> Oracle.answer_batch oracle ps) in
      let (), te =
        call "protocol.buf_add_frame_responses" (fun () ->
            Protocol.buf_add_frame_responses b ~batched rs)
      in
      parse := !parse +. tp;
      answer := !answer +. ta;
      encode := !encode +. te;
      per_line := (tp +. ta +. te) :: !per_line)
    lines rendered
  in
  (* The daemon's line and the in-process rendering, byte for byte
     (the client stripped the daemon's newline). *)
  let ph = phase "replay" in
  List.iter2
    (fun (_, _, daemon_text) b ->
      check ph (Buffer.contents b = daemon_text ^ "\n") (fun () ->
          "in-process answer differs from the daemon's"))
    lines rendered;
  { parse = !parse; answer = !answer; encode = !encode; per_line = List.rev !per_line; wall }

(* Direct Eval calls on a fresh workspace, over the stream's λ. *)
let eval_layer scn (lines : line list) =
  let reqs = List.concat_map (fun (l : line) -> Array.to_list l.reqs) lines in
  let take n xs = List.filteri (fun i _ -> i < n) xs in
  eval_costs scn
    ~means:(take 2000 (List.filter_map (function Lat x -> Some x | _ -> None) reqs))
    ~quantiles:(take 200 (List.filter_map (function Qnt x -> Some x | _ -> None) reqs))

(* ------------------------------------------------------------------ *)

let run ~cold ~seed ~seconds ~traced =
  let g0 = Random.State.make [| seed; (if cold then 1 else 2) |] in
  let scenario_path = Filename.concat work_dir "fig5.scn" in
  write_file scenario_path (Scn.fig5 ~seed ~warmup:1000 ~measured:10000 ~drain:1000);
  let scn, t_load =
    time (fun () -> match Scenario.load scenario_path with Ok s -> s | Error e -> failwith e)
  in
  let sat = Eval.saturation_rate (Scenario.evaluator scn) in
  let ck = { scn; sat; refs = Hashtbl.create 65536; got = [] } in
  let g = { rng = g0; lmax = 0.95 *. sat; used = Hashtbl.create 65536; working = [||] } in
  let g =
    if cold then g
    else
      let w = Array.append (Array.init figure_points (axis g)) (Array.init 256 (fun _ -> fresh g)) in
      { g with working = w }
  in
  (* Warm set-up fills the memo: both ops for every working-set λ. *)
  let fill =
    let all = Array.concat (Array.to_list (Array.map (fun x -> [| Lat x; Qnt x |]) g.working)) in
    List.init ((Array.length all + 63) / 64) (fun i ->
        line_of ~batched:true (Array.sub all (i * 64) (min 64 (Array.length all - (i * 64)))))
    @ if cold then [] else [ line_of ~batched:false [| Sat |] ]
  in
  let sock = Filename.concat work_dir "oracle.sock" in
  let launches = if traced then 1 else if cold then 25 else 3 in
  let setups = ref [] and last = ref None in
  for _ = 1 to launches do
    Option.iter (fun (d, c, _) -> Wire.close c; Wire.stop d) !last;
    let first = line_of ~batched:false [| Lat (lambda g) |] in
    let (d, c, dt) = launch ~scenario_path ~sock ~ck ~first ~fill in
    setups := dt :: !setups;
    last := Some (d, c, dt)
  done;
  let d, c0, _ = Option.get !last in
  let c1 = Wire.connect d in
  let conns = [| c0; c1 |] in
  let next = if cold then (fun () -> line_of ~batched:false [| req g |]) else shape_stream g in
  verify ck;
  let s0 = Wire.scrape d in
  (* Untraced, the three closed loops (two connections for qps, one
     connection for latency, figures) run in interleaved rounds, so
     each metric's windows span the whole run: a slow spell on the
     shared host lands in a few windows of every metric rather than in
     all the windows of one. *)
  let rounds = if traced then 1 else 5 in
  let slice f = seconds *. f /. float_of_int rounds in
  (* Cold figures ask fresh loads; the warm figure is one fixed line. *)
  let next_figure =
    if cold then fun () -> figure_line ~axis_of:(fun k -> fresh_near g (axis g k))
    else
      let l = figure_line ~axis_of:(axis g) in
      fun () -> l
  in
  (* Latency and server overhead are read on one connection, one line
     at a time, so a round trip holds no other connection's work: on
     the one-domain daemon a two-connection round trip is the sum of
     two services, and its distribution has a gap near p50 (a latency
     query queued behind a latency or behind a quantile one). *)
  let one_connection ~keep seconds =
    closed_phase ~keep ~name:"one_connection" [| c0 |] ~seconds ~next ~ck
  in
  let played =
    List.init rounds (fun _ ->
        let c =
          closed_phase ~keep:traced conns ~seconds:(slice (if traced then 0.4 else 0.45)) ~next ~ck
        in
        let rest =
          if traced then None
          else
            let s = one_connection ~keep:false (slice 0.25) in
            (* Figures, closed loop on both connections: the daemon
               stays busy, so its speed, not wake-up latency, sets the
               round trip. *)
            let f =
              closed_phase ~name:"figure" conns ~seconds:(slice 0.3)
                ~next:next_figure ~ck
            in
            Some (s, f)
        in
        verify ck;
        (c, rest))
  in
  let s1 = Wire.scrape d in
  let delta name = Wire.series s1 name -. Wire.series s0 name in
  let closed = List.map fst played in
  let figures = List.filter_map (fun (_, r) -> Option.map snd r) played in
  (* The open-loop ladder runs in the traced run only: its p99 on a
     small shared host is set by scheduling stalls as much as by the
     daemon, too unsteady to gate on, so it is tracked per layer.  Its
     rates are fractions of the single-request closed-loop capacity. *)
  let slo, rungs =
    if not traced then (nan, [])
    else begin
      let make () = line_of ~batched:false [| req g |] in
      let probe = if cold then List.hd closed else closed_phase conns ~seconds:0.3 ~next:make ~ck in
      let capacity = float_of_int (List.length probe.done_at) /. probe.elapsed in
      verify ck;
      ladder conns g ~make ~capacity ~budget:(slo_budget ~cold) ~duration:(seconds *. 0.07) ~ck
    end
  in
  let single =
    if traced then [ one_connection ~keep:true (seconds *. 0.1) ]
    else List.filter_map (fun (_, r) -> Option.map fst r) played
  in
  let peak = Wire.vm_hwm_mb d in
  let s2 = Wire.scrape d in
  Wire.close c0;
  Wire.close c1;
  Wire.stop d;
  verify ck;
  let windows_of width cs = List.concat_map (windows ~width) cs in
  let count f cs = List.fold_left (fun a c -> a + f c) 0 cs in
  let per_window = windows_of 0.5 closed in
  let lat_windows = windows_of 0.5 single in
  let metrics =
    match figures with
    | _ :: _ ->
        [
          ("setup_s", "s", median !setups);
          ("qps", "queries/s", median (List.map (fun w -> w.w_qps) per_window));
          ("latency_p50_ms", "ms", median (List.map (fun w -> w.w_p50) lat_windows) *. 1e3);
          ("latency_p90_ms", "ms", median (List.map (fun w -> w.w_p90) lat_windows) *. 1e3);
          ("figure_s", "s", median (List.concat_map rtts figures));
          ( "designs_per_s",
            "designs/s",
            median (List.map (fun w -> w.w_lines) (windows_of 1. figures)) );
          ("peak_rss_mb", "MB", peak);
        ]
    | [] ->
        let closed = List.hd closed and single = List.hd single in
        let untraced = replay scn ~fill closed.lines in
        tracer := Trace.create ();
        let traced_r = replay scn ~fill closed.lines in
        let evals = eval_layer scn (List.map (fun (l, _, _) -> l) closed.lines) in
        let spans = Trace.spans !tracer in
        write_file
          (Filename.concat work_dir ((if cold then "oracle_cold" else "oracle_warm") ^ ".trace.json"))
          (Trace.to_chrome_json !tracer);
        tracer := Trace.disabled;
        let self, unattributed = rollup ~root:"bench.replay" spans in
        let overhead =
          List.map2
            (fun (_, rtt, _) inproc -> rtt -. inproc)
            single.lines (replay scn ~fill single.lines).per_line
        in
        let q = float_of_int closed.queries in
        let hits = delta "serve_memo_hits" and misses = delta "serve_memo_misses" in
        [
          ("server.overhead_us_p50", "us", median overhead *. 1e6);
          ("server.batch_size_mean", "requests",
            delta "serve_batch_size_sum" /. delta "serve_batch_size_count");
          ("server.slo_qps", "queries/s", slo);
          ("protocol.parse_ns_per_req", "ns", untraced.parse /. q *. 1e9);
          ("protocol.encode_ns_per_req", "ns", untraced.encode /. q *. 1e9);
          ("oracle.answer_us_per_req", "us", untraced.answer /. q *. 1e6);
          ("memo.hit_ratio", "ratio", hits /. (hits +. misses));
          ("memo.evictions", "count", Wire.series s2 "serve_memo_evictions");
          ("scenario.load_ms", "ms", t_load *. 1e3);
          ("trace.unattributed_frac", "ratio", unattributed);
          ("trace.overhead_frac", "ratio", (traced_r.wall /. untraced.wall) -. 1.);
        ]
        @ evals
        @ layer_shares self
  in
  {
    metrics;
    info =
      [
        ("daemon_domains", Json.Num 1.);
        ("lambda_sat", Json.Num sat);
        ("rounds", Json.Num (float_of_int rounds));
        ("closed_loop_lines", Json.Num (float_of_int (count (fun c -> List.length c.done_at) closed)));
        ("closed_loop_queries", Json.Num (float_of_int (count (fun c -> c.queries) closed)));
        ("windows", Json.Num (float_of_int (List.length per_window)));
        ("window_s", Json.Num 0.5);
        ("latency_lines", Json.Num (float_of_int (count (fun c -> List.length c.done_at) single)));
        ("latency_queries", Json.Num (float_of_int (count (fun c -> c.queries) single)));
        ("latency_windows", Json.Num (float_of_int (List.length lat_windows)));
        (* Reported, not gated: on the shared reference host the p99 of
           a window is set by scheduling stalls (see README). *)
        ( "latency_p99_ms",
          Json.Num (median (List.map (fun w -> w.w_p99) lat_windows) *. 1e3) );
        ( "line_shapes",
          Json.Str
            (if cold then "single requests"
             else
               Printf.sprintf "per cycle %d arrays of 64, %d single requests, 1 array of %d"
                 arrays_per_cycle arrays_per_cycle big_array) );
        ("setup_samples", Json.Num (float_of_int (List.length !setups)));
        ( "figures",
          Json.Num (float_of_int (count (fun f -> List.length f.done_at) figures)) );
        ("slo_budget_ms", Json.Num (slo_budget ~cold *. 1e3));
        ("ladder", Json.Arr (List.map rung_json rungs));
      ];
  }
