module Metrics = Fatnet_obs.Metrics

type job = {
  task : int -> int -> unit;
  n_tasks : int;
  next : int Atomic.t;
  regs : Metrics.t array; (* per-worker registries, absorbed after the join; [||] when off *)
  busy : float array; (* per-domain busy seconds *)
}

type t = {
  size : int;
  lock : Mutex.t;
  work : Condition.t;
  idle : Condition.t;
  mutable job : job option;
  mutable epoch : int;
  mutable pending : int;
  mutable stop : bool;
  mutable closed : bool;
  active : bool Atomic.t;
  mutable workers : unit Domain.t array;
  err : (exn * Printexc.raw_backtrace) option Atomic.t;
}

let recommended_domains () = max 1 (Domain.recommended_domain_count ())

let run_tasks t job d =
  let t0 = Metrics.now_seconds () in
  let continue = ref true in
  while !continue do
    if Atomic.get t.err <> None then continue := false
    else begin
      let i = Atomic.fetch_and_add job.next 1 in
      if i >= job.n_tasks then continue := false
      else
        try job.task d i
        with e ->
          let bt = Printexc.get_raw_backtrace () in
          ignore (Atomic.compare_and_set t.err None (Some (e, bt)));
          continue := false
    end
  done;
  job.busy.(d) <- job.busy.(d) +. (Metrics.now_seconds () -. t0)

let worker_loop ~once t d () =
  let seen = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock t.lock;
    while (not t.stop) && t.epoch = !seen do
      Condition.wait t.work t.lock
    done;
    if t.stop then begin
      Mutex.unlock t.lock;
      running := false
    end
    else begin
      seen := t.epoch;
      let job = match t.job with Some j -> j | None -> assert false in
      Mutex.unlock t.lock;
      if Array.length job.regs > 0 then
        Metrics.with_ambient job.regs.(d) (fun () -> run_tasks t job d)
      else run_tasks t job d;
      Mutex.lock t.lock;
      t.pending <- t.pending - 1;
      if t.pending = 0 then Condition.signal t.idle;
      Mutex.unlock t.lock;
      if once then running := false
    end
  done

let spawn ~once ?domains () =
  let size =
    match domains with
    | Some d -> if d < 1 then invalid_arg "Pool.create: domains must be >= 1" else d
    | None -> recommended_domains ()
  in
  let t =
    {
      size;
      lock = Mutex.create ();
      work = Condition.create ();
      idle = Condition.create ();
      job = None;
      epoch = 0;
      pending = 0;
      stop = false;
      closed = false;
      active = Atomic.make false;
      workers = [||];
      err = Atomic.make None;
    }
  in
  t.workers <- Array.init (size - 1) (fun i -> Domain.spawn (worker_loop ~once t (i + 1)));
  t

let create ?domains () = spawn ~once:false ?domains ()

let domains t = t.size

let shutdown t =
  if not t.closed then begin
    t.closed <- true;
    Mutex.lock t.lock;
    t.stop <- true;
    Condition.broadcast t.work;
    Mutex.unlock t.lock;
    Array.iter Domain.join t.workers
  end

let with_pool ?domains f =
  let t = create ?domains () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let run t n ~f =
  if t.closed then invalid_arg "Pool.run: pool is shut down";
  (* Claim the pool before touching [err]: a nested or concurrent
     call must fail without erasing the running batch's recorded
     exception. *)
  if not (Atomic.compare_and_set t.active false true) then
    invalid_arg "Pool.run: a batch is already running on this pool";
  Atomic.set t.err None;
  let caller_reg = Metrics.ambient () in
  let absorb = t.size > 1 && Metrics.is_enabled caller_reg in
  let job =
    {
      task = f;
      n_tasks = n;
      next = Atomic.make 0;
      regs =
        (if absorb then
           Array.init t.size (fun d -> if d > 0 then Metrics.create () else Metrics.disabled)
         else [||]);
      busy = Array.make t.size 0.;
    }
  in
  if t.size > 1 then begin
    Mutex.lock t.lock;
    t.job <- Some job;
    t.epoch <- t.epoch + 1;
    t.pending <- t.size - 1;
    Condition.broadcast t.work;
    Mutex.unlock t.lock
  end;
  run_tasks t job 0;
  if t.size > 1 then begin
    Mutex.lock t.lock;
    while t.pending > 0 do
      Condition.wait t.idle t.lock
    done;
    t.job <- None;
    Mutex.unlock t.lock
  end;
  let err = Atomic.get t.err in
  Atomic.set t.active false;
  if absorb then
    for d = 1 to t.size - 1 do
      Metrics.absorb caller_reg (Metrics.snapshot job.regs.(d))
    done;
  (match err with Some (e, bt) -> Printexc.raise_with_backtrace e bt | None -> ());
  job.busy

let run_once ?domains n ~f =
  let t = spawn ~once:true ?domains () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> run t n ~f)
