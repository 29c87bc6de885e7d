(* The socket side: a `fatnet serve` daemon launched from the built
   binary, and the closed- and open-loop clients that load it.  The
   client is single-threaded (one select loop over at most two
   connections), so it and the one-domain daemon fit two cores. *)

open Common

let fatnet_exe = "_build/default/bin/fatnet.exe"

type daemon = { pid : int; sock : string }

let live : daemon list ref = ref []

let rec waitpid_retry flags pid =
  try Unix.waitpid flags pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry flags pid

(* SIGTERM (a clean shutdown unlinks the socket), SIGKILL after 5 s,
   reap, and unlink the socket whatever happened. *)
let stop d =
  if List.memq d !live then begin
    live := List.filter (fun x -> x != d) !live;
    (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = now () +. 5. in
    let rec reap () =
      match waitpid_retry [ Unix.WNOHANG ] d.pid with
      | 0, _ when now () < deadline ->
          Unix.sleepf 0.002;
          reap ()
      | 0, _ ->
          (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (waitpid_retry [] d.pid)
      | _ -> ()
      | exception Unix.Unix_error _ -> ()
    in
    reap ();
    try Unix.unlink d.sock with Unix.Unix_error _ -> ()
  end

let () = at_exit (fun () -> List.iter stop !live)

(* Memo entries per shard (64 shards): 2048 in all, so the cold
   daemon's memo is full within its first seconds of traffic and evicts
   from then on, and its peak RSS no longer grows with the number of
   queries a run happens to answer; the warm working set (577 entries)
   stays far below it. *)
let memo_capacity = 32

let spawn ~scenario_path ~sock =
  let log =
    Unix.openfile (Filename.concat work_dir "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let args =
    [ fatnet_exe; "serve"; "--scenario"; scenario_path; "--listen"; "unix:" ^ sock;
      "--no-cache"; "--domains"; "1"; "--memo-capacity"; string_of_int memo_capacity; "--quiet" ]
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close log; Unix.close null)
      (fun () -> Unix.create_process fatnet_exe (Array.of_list args) null log log)
  in
  let d = { pid; sock } in
  live := d :: !live;
  d

let vm_hwm_mb d = Common.vm_hwm_mb (string_of_int d.pid)

(* ------------------------------------------------------------------ *)
(* Connections: blocking sockets, newline framing. *)

type conn = { fd : Unix.file_descr; acc : Buffer.t; rbuf : Bytes.t }

exception Dropped of string

let () =
  Printexc.register_printer (function
    | Dropped why -> Some ("connection dropped: " ^ why)
    | _ -> None)

let connect_once sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> { fd; acc = Buffer.create 4096; rbuf = Bytes.create 65536 }
  | exception e ->
      Unix.close fd;
      raise e

(* Retry until the daemon listens; fail if it exits or 30 s pass. *)
let connect d =
  let deadline = now () +. 30. in
  let rec go () =
    match connect_once d.sock with
    | c -> c
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        (match waitpid_retry [ Unix.WNOHANG ] d.pid with
        | 0, _ -> ()
        | _ -> raise (Dropped "daemon exited before listening"));
        if now () > deadline then raise (Dropped "daemon did not listen within 30 s");
        Unix.sleepf 0.0005;
        go ()
  in
  go ()

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let write_all c s =
  let n = String.length s in
  let rec go off =
    if off < n then
      match Unix.write_substring c.fd s off (n - off) with
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error (e, _, _) -> raise (Dropped (Unix.error_message e))
  in
  go 0

(* One read; the complete lines it finished (the tail stays buffered). *)
let read_lines c =
  let n =
    try Unix.read c.fd c.rbuf 0 (Bytes.length c.rbuf) with
    | Unix.Unix_error (Unix.EINTR, _, _) -> -1
    | Unix.Unix_error (e, _, _) -> raise (Dropped (Unix.error_message e))
  in
  if n = 0 then raise (Dropped "connection closed by the daemon");
  let lines = ref [] in
  let start = ref 0 in
  let continue = ref (n > 0) in
  while !continue do
    match Bytes.index_from_opt c.rbuf !start '\n' with
    | Some i when i < n ->
        Buffer.add_subbytes c.acc c.rbuf !start (i - !start);
        lines := Buffer.contents c.acc :: !lines;
        Buffer.clear c.acc;
        start := i + 1
    | _ ->
        if n > !start then Buffer.add_subbytes c.acc c.rbuf !start (n - !start);
        continue := false
  done;
  List.rev !lines

let rec select_read fds timeout =
  match Unix.select fds [] [] timeout with
  | r, _, _ -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> select_read fds timeout

(* A blocking request/answer on one connection; [line] ends in '\n'. *)
let round_trip c line =
  write_all c line;
  let deadline = now () +. 30. in
  let rec wait () =
    if now () > deadline then raise (Dropped "timed out waiting for an answer");
    match select_read [ c.fd ] (deadline -. now ()) with
    | [] -> wait ()
    | _ -> ( match read_lines c with l :: _ -> l | [] -> wait ())
  in
  wait ()

(* ------------------------------------------------------------------ *)
(* Closed loop: each connection keeps one request line outstanding
   until [until]; [next ()] makes the next line and its tag, and
   [answer tag line rtt] receives each answer.  A timed-out or dropped
   connection hands its outstanding tag to [lost] and stops. *)

let closed_loop conns ~until ~next ~answer ~lost =
  let n = Array.length conns in
  let out = Array.make n None in
  let send i =
    let line, tag = next () in
    out.(i) <- Some (tag, now ());
    try write_all conns.(i) line
    with Dropped why ->
      out.(i) <- None;
      lost tag why
  in
  for i = 0 to n - 1 do send i done;
  let busy () = List.filter (fun i -> out.(i) <> None) (List.init n Fun.id) in
  let rec loop () =
    match busy () with
    | [] -> ()
    | idx ->
        let ready = select_read (List.map (fun i -> conns.(i).fd) idx) 10. in
        if ready = [] then
          List.iter
            (fun i ->
              Option.iter (fun (tag, _) -> lost tag "timed out after 10 s") out.(i);
              out.(i) <- None)
            idx
        else
          List.iter
            (fun i ->
              if List.memq conns.(i).fd ready then
                match read_lines conns.(i) with
                | lines ->
                    List.iter
                      (fun l ->
                        match out.(i) with
                        | Some (tag, t0) ->
                            answer tag l (now () -. t0);
                            out.(i) <- None;
                            if now () < until then send i
                        | None -> ())
                      lines
                | exception Dropped why ->
                    Option.iter (fun (tag, _) -> lost tag why) out.(i);
                    out.(i) <- None)
            idx;
        loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Open loop: [schedule] holds (due offset in s, line, tag), sorted;
   lines alternate over the connections and are written at their due
   time whatever is outstanding.  Each answer is timed from its due
   time.  Returns the generator's lateness samples (send − due) and
   the backlog left when the schedule ended. *)

type open_stats = { lateness : float list; backlog_at_end : int }

let open_loop conns ~schedule ~drain ~answer ~lost =
  let n = Array.length conns in
  let fifo = Array.init n (fun _ -> Queue.create ()) in
  let dead = Array.make n false in
  let total = Array.length schedule in
  let t0 = now () in
  let k = ref 0 in
  let outstanding = ref 0 in
  let lateness = ref [] in
  let backlog_at_end = ref (-1) in
  let end_at = ref infinity in
  let kill i why =
    dead.(i) <- true;
    Queue.iter (fun (_, tag) -> lost tag why) fifo.(i);
    outstanding := !outstanding - Queue.length fifo.(i);
    Queue.clear fifo.(i)
  in
  while !k < total || (!outstanding > 0 && now () < !end_at) do
    let t = now () in
    while !k < total && t0 +. (let d, _, _ = schedule.(!k) in d) <= t do
      let due, line, tag = schedule.(!k) in
      let i = !k mod n in
      incr k;
      if dead.(i) then lost tag "connection dropped earlier"
      else begin
        Queue.add (t0 +. due, tag) fifo.(i);
        incr outstanding;
        (try write_all conns.(i) line with Dropped why -> kill i why);
        lateness := (now () -. (t0 +. due)) :: !lateness
      end
    done;
    if !k >= total && !backlog_at_end < 0 then begin
      backlog_at_end := !outstanding;
      end_at := now () +. drain
    end;
    (* Within 2 ms of the next due time the generator polls instead of
       sleeping, so its own wake-up jitter does not count as latency. *)
    let timeout =
      if !k < total then
        let d, _, _ = schedule.(!k) in
        let wait = t0 +. d -. now () in
        if wait < 0.002 then 0. else wait -. 0.002
      else Float.max 0. (!end_at -. now ())
    in
    let fds = List.filter_map (fun i -> if dead.(i) then None else Some conns.(i).fd)
                (List.init n Fun.id) in
    if fds <> [] then
      let ready = select_read fds timeout in
      Array.iteri
        (fun i c ->
          if (not dead.(i)) && List.memq c.fd ready then
            match read_lines c with
            | lines ->
                let t = now () in
                List.iter
                  (fun l ->
                    match Queue.take_opt fifo.(i) with
                    | Some (due, tag) ->
                        decr outstanding;
                        answer tag l (t -. due)
                    | None -> ())
                  lines
            | exception Dropped why -> kill i why)
        conns
  done;
  Array.iteri (fun i _ -> if not dead.(i) then kill i "no answer within the drain time") conns;
  { lateness = !lateness; backlog_at_end = max 0 !backlog_at_end }

(* ------------------------------------------------------------------ *)
(* The daemon's own counters, from its `GET /metrics` scrape. *)

let scrape d =
  let c = connect d in
  Fun.protect ~finally:(fun () -> close c) @@ fun () ->
  write_all c "GET /metrics HTTP/1.0\r\n\r\n";
  let b = Buffer.create 8192 in
  let rec drain () =
    match read_lines c with
    | ls ->
        List.iter (fun l -> Buffer.add_string b l; Buffer.add_char b '\n') ls;
        drain ()
    | exception Dropped _ -> Buffer.add_buffer b c.acc
  in
  drain ();
  List.filter_map
    (fun l ->
      if l = "" || l.[0] = '#' then None
      else
        match String.rindex_opt l ' ' with
        | None -> None
        | Some i -> (
            let name = String.sub l 0 i in
            let name = match String.index_opt name '{' with
              | Some j -> String.sub name 0 j | None -> name in
            let value = String.trim (String.sub l (i + 1) (String.length l - i - 1)) in
            match float_of_string_opt value with
            | Some v -> Some (name, v)
            | None -> None))
    (String.split_on_char '\n' (Buffer.contents b))

(* Sum over every label set of a scraped series. *)
let series scraped name =
  List.fold_left (fun acc (n, v) -> if n = name then acc +. v else acc) 0. scraped
