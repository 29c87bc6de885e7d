(* Shared plumbing for the workloads: clock, statistics, the ledger of
   attempted/failed operations, benchmark-side spans and their per-layer
   rollup, the evaluator's per-call costs, files, and process facts
   (peak RSS, host). *)

module Trace = Fatnet_obs.Trace
module Json = Fatnet_obs.Json

let now () = Int64.to_float (Trace.now_ns ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* The directory every run writes into; relative, so unix socket paths
   stay short whatever the checkout's location. *)
let work_dir = ".perfbench-work"

let ensure_dir d = if not (Sys.file_exists d) then Unix.mkdir d 0o755

let rm_rf d =
  if Sys.file_exists d then
    ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote d)))

(* ------------------------------------------------------------------ *)
(* Statistics *)

(* Linear interpolation between closest ranks (Python's
   [statistics.quantiles(..., method="inclusive")]). *)
let quantile xs q =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = truncate pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5
let sum xs = List.fold_left ( +. ) 0. xs
let mean xs = match xs with [] -> nan | _ -> sum xs /. float_of_int (List.length xs)

(* ------------------------------------------------------------------ *)
(* The ledger: every operation the benchmark attempts, per phase.  An
   operation fails on a wrong answer, an [ok:false], a refused or
   dropped connection, or a timeout. *)

type phase = { name : string; mutable attempted : int; mutable failed : int }

let phases : phase list ref = ref []
let first_failures : string list ref = ref []

let phase name =
  match List.find_opt (fun p -> p.name = name) !phases with
  | Some p -> p
  | None ->
      let p = { name; attempted = 0; failed = 0 } in
      phases := !phases @ [ p ];
      p

let attempt p = p.attempted <- p.attempted + 1

let fail p why =
  p.failed <- p.failed + 1;
  if List.length !first_failures < 10 then begin
    first_failures := (p.name ^ ": " ^ why) :: !first_failures;
    prerr_endline ("perfbench: FAILED " ^ p.name ^ ": " ^ why)
  end

(* [check p ok why] counts one operation of phase [p]. *)
let check p ok why =
  attempt p;
  if not ok then fail p (why ())

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* ------------------------------------------------------------------ *)
(* Spans: recorded only by the benchmark's own code, around calls into
   each layer's public functions (plus whatever the layers already
   record on a tracer they are handed).  Names are "layer.function". *)

let tracer = ref Trace.disabled
let span name f = Trace.in_span !tracer name (fun _ -> f ())

(* Layer of a span name: the prefix before the first dot; the sweep
   engine's and the runner's own undotted spans are mapped by hand. *)
let layer_of name =
  match name with
  | "point" | "attempt" -> "sweep"
  | "replication" -> "sim"
  | _ -> (
      match String.index_opt name '.' with
      | Some i -> String.sub name 0 i
      | None -> name)

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let iv =
    List.filter_map
      (fun (a, b) ->
        let a = Int64.max a lo and b = Int64.min b hi in
        if Int64.compare a b < 0 then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        let a = Int64.max a reach in
        if Int64.compare a b < 0 then (Int64.add acc (Int64.sub b a), b) else (acc, reach))
      (0L, lo) iv
  in
  total

(* Self time per layer (seconds) of the spans under the root span named
   [root], and the share of the root's wall covered by no child span. *)
let rollup ~root (spans : Trace.span_record list) =
  let children = Hashtbl.create 1024 in
  List.iter (fun (s : Trace.span_record) -> Hashtbl.add children s.parent s) spans;
  let under = Hashtbl.create 1024 in
  let rec mark (s : Trace.span_record) =
    List.iter
      (fun (c : Trace.span_record) ->
        Hashtbl.replace under c.id ();
        mark c)
      (Hashtbl.find_all children s.id)
  in
  List.iter (fun (s : Trace.span_record) -> if s.name = root then mark s) spans;
  let self = Hashtbl.create 16 in
  List.iter
    (fun (s : Trace.span_record) ->
      if Hashtbl.mem under s.id then begin
        let lo = s.start_ns and hi = Int64.add s.start_ns s.dur_ns in
        let kids =
          List.map
            (fun (c : Trace.span_record) -> (c.start_ns, Int64.add c.start_ns c.dur_ns))
            (Hashtbl.find_all children s.id)
        in
        let own = Int64.sub s.dur_ns (covered ~lo ~hi kids) in
        let l = layer_of s.name in
        let prev = Option.value (Hashtbl.find_opt self l) ~default:0. in
        Hashtbl.replace self l (prev +. (Int64.to_float own *. 1e-9))
      end)
    spans;
  let unattributed =
    match List.find_opt (fun (s : Trace.span_record) -> s.name = root) spans with
    | None -> nan
    | Some r ->
        let hi = Int64.add r.start_ns r.dur_ns in
        let kids =
          List.map
            (fun (c : Trace.span_record) -> (c.start_ns, Int64.add c.start_ns c.dur_ns))
            (Hashtbl.find_all children r.id)
        in
        Int64.to_float (Int64.sub r.dur_ns (covered ~lo:r.start_ns ~hi kids))
        /. Int64.to_float r.dur_ns
  in
  (List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) self []), unattributed)

(* Each layer's share of all the self time the layers recorded (with
   parallel domains the self times sum to more than the wall). *)
let layer_shares self =
  let total = List.fold_left (fun a (_, s) -> a +. s) 0. self in
  List.map (fun (l, s) -> ("layer_share." ^ l, "ratio", s /. total)) self

(* Per-call durations (seconds) of the spans with this name. *)
let durations name spans =
  List.filter_map
    (fun (s : Trace.span_record) ->
      if s.name = name then Some (Int64.to_float s.dur_ns *. 1e-9) else None)
    spans

(* Allocated bytes (minor + direct major) of [f] on this domain. *)
let alloc_bytes f =
  let m0, p0, j0 = Gc.counters () in
  let r = f () in
  let m1, p1, j1 = Gc.counters () in
  let words = m1 -. m0 +. (j1 -. j0) -. (p1 -. p0) in
  (r, words *. float_of_int (Sys.word_size / 8))

(* The value of a counter in a metrics registry (nan when absent). *)
let counter reg name =
  match Fatnet_obs.Metrics.Snapshot.find (Fatnet_obs.Metrics.snapshot reg) name with
  | Some (Fatnet_obs.Metrics.Snapshot.Counter n) -> float_of_int n
  | _ -> nan

(* The evaluator's own costs on a fresh workspace for [scn]: the
   workspace build, median time and mean allocation per
   [Eval.mean_into] over [means] and per [Eval.quantile] (q = 0.99) over
   [quantiles], and one cold saturation search. *)
let eval_costs scn ~means ~quantiles =
  let module Eval = Fatnet_model.Eval in
  let module Scenario = Fatnet_scenario.Scenario in
  let ws, t_ws = time (fun () -> span "eval.workspace" (fun () -> Scenario.evaluator scn)) in
  let per_call name f xs =
    let call x = time (fun () -> snd (alloc_bytes (fun () -> span name (fun () -> f x)))) in
    let calls = List.map call xs in
    (median (List.map snd calls), mean (List.map fst calls))
  in
  let mean_t, mean_b = per_call "eval.mean_into" (fun l -> Eval.mean_into ws ~lambda_g:l) means in
  let q_t, q_b = per_call "eval.quantile" (fun l -> Eval.quantile ws ~lambda_g:l ~q:0.99) quantiles in
  let reg = Fatnet_obs.Metrics.create () in
  let _, t_sat =
    time (fun () ->
        Fatnet_obs.Metrics.with_ambient reg (fun () ->
            span "solver.saturation_rate" (fun () -> Eval.saturation_rate (Scenario.evaluator scn))))
  in
  [
    ("eval.workspace_build_us", "us", t_ws *. 1e6);
    ("eval.mean_us", "us", mean_t *. 1e6);
    ("eval.mean_alloc_bytes", "B", mean_b);
    ("eval.quantile_us", "us", q_t *. 1e6);
    ("eval.quantile_alloc_bytes", "B", q_b);
    ("solver.saturation_ms", "ms", t_sat *. 1e3);
    ("solver.evals_per_search", "count", counter reg "model_evaluations");
  ]

(* ------------------------------------------------------------------ *)
(* Files, process and host facts *)

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
      Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> nan
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %f kB" (fun kb -> kb /. 1024.)
        | _ -> go ()
      in
      go ()

let command_line cmd =
  match Unix.open_process_in (cmd ^ " 2>/dev/null") with
  | exception Unix.Unix_error _ -> ""
  | ic ->
      let l = try input_line ic with End_of_file -> "" in
      ignore (Unix.close_process_in ic);
      String.trim l

(* Digest of the program's sources, so results from a checkout with no
   git metadata still name the code they measured. *)
let source_digest () =
  let files = ref [] in
  let rec walk d =
    Array.iter
      (fun f ->
        let p = Filename.concat d f in
        if Sys.is_directory p then walk p
        else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli" then
          files := p :: !files)
      (try Sys.readdir d with Sys_error _ -> [||])
  in
  List.iter walk [ "lib"; "bin" ];
  let b = Buffer.create 4096 in
  List.iter
    (fun p ->
      Buffer.add_string b p;
      Buffer.add_string b (Digest.to_hex (Digest.file p)))
    (List.sort compare !files);
  String.sub (Digest.to_hex (Digest.string (Buffer.contents b))) 0 12

let host () =
  (* Only this checkout's own metadata: git would otherwise report an
     enclosing repository's commit. *)
  let commit =
    if Sys.file_exists ".git" then command_line "git rev-parse --short=12 HEAD" else ""
  in
  [
    ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
    ("ocaml", Json.Str Sys.ocaml_version);
    ("commit", Json.Str (if commit = "" then "unknown" else commit));
    ("source_digest", Json.Str (source_digest ()));
  ]

(* ------------------------------------------------------------------ *)
(* JSON output *)

let rec json_to_buf b = function
  | Json.Null -> Buffer.add_string b "null"
  | Json.Bool v -> Buffer.add_string b (string_of_bool v)
  | Json.Num f ->
      if Float.is_integer f && Float.abs f < 1e15 then Buffer.add_string b (Printf.sprintf "%.0f" f)
      else if Float.is_finite f then Buffer.add_string b (Json.shortest_float f)
      else Buffer.add_string b "null"
  | Json.Str s -> Json.buf_add_string b s
  | Json.Arr l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string b ", ";
          json_to_buf b v)
        l;
      Buffer.add_char b ']'
  | Json.Obj l ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string b ", ";
          Json.buf_add_string b k;
          Buffer.add_string b ": ";
          json_to_buf b v)
        l;
      Buffer.add_char b '}'

let json_to_string j =
  let b = Buffer.create 1024 in
  json_to_buf b j;
  Buffer.contents b

(* What a workload returns: its metrics (name, unit, value) and the
   provenance it wants recorded beside them. *)
type result = { metrics : (string * string * float) list; info : (string * Json.t) list }
