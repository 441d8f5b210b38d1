(* A fixed-size domain pool with work-stealing deques.

   Inference fan-outs hand the pool a batch of independent, coarse work
   items (one mapping-rule evaluation each).  Each worker owns a deque of
   item indices: the owner pops from the bottom, idle workers steal from
   the top of a victim's deque — the classic work-stealing discipline,
   here with a per-deque mutex instead of a lock-free Chase-Lev buffer.
   Items cost micro- to milliseconds, so deque operations are noise; a
   mutex keeps the memory-model reasoning trivial on every OCaml 5.x.

   Determinism does not depend on the schedule: results are stored by
   item index and handed back in index order, so the caller's merge is
   the same fold the sequential loop performs. *)

(* ----- Work-stealing deque of item indices ----- *)

type deque = {
  items : int array;  (* the slice of indices this worker starts with *)
  mutable top : int;  (* next steal position (inclusive) *)
  mutable bottom : int;  (* next owner position (exclusive) *)
  lock : Mutex.t;
}

let deque_of_slice items = { items; top = 0; bottom = Array.length items; lock = Mutex.create () }

(* Owner end: LIFO keeps the hot cache lines with the worker. *)
let pop_bottom d =
  Mutex.protect d.lock (fun () ->
      if d.bottom > d.top then begin
        d.bottom <- d.bottom - 1;
        Some d.items.(d.bottom)
      end
      else None)

(* Thief end: FIFO steals the oldest (largest remaining) chunk of work. *)
let steal_top d =
  Mutex.protect d.lock (fun () ->
      if d.top < d.bottom then begin
        let i = d.items.(d.top) in
        d.top <- d.top + 1;
        Some i
      end
      else None)

(* ----- Batches ----- *)

type batch = {
  run : int -> unit;  (* body; stores its own result, never raises *)
  deques : deque array;  (* one per worker, worker 0 = the caller *)
  remaining : int Atomic.t;  (* items not yet finished *)
}

type t = {
  size : int;  (* total workers, caller included *)
  lock : Mutex.t;
  work_cond : Condition.t;  (* workers: "a new batch is up" *)
  done_cond : Condition.t;  (* caller: "the last item finished" *)
  mutable current : (int * batch) option;  (* (epoch, batch) *)
  mutable epoch : int;
  mutable stopped : bool;
  mutable domains : unit Domain.t list;  (* size - 1 spawned workers *)
  (* Lifetime stats: atomics because workers update them concurrently;
     one fetch-and-add per item/steal/park is noise next to item cost. *)
  s_steals : int Atomic.t;
  s_parks : int Atomic.t;
  s_batches : int Atomic.t;
  s_items : int Atomic.t array;  (* per worker slot *)
}

type stats = {
  steals : int;
  parks : int;
  batches : int;
  items_per_worker : int array;
}

let stats t =
  { steals = Atomic.get t.s_steals;
    parks = Atomic.get t.s_parks;
    batches = Atomic.get t.s_batches;
    items_per_worker = Array.map Atomic.get t.s_items }

let clamp_jobs j = if j < 1 then 1 else j

(* The [JOBS] environment variable, when it holds a positive count. *)
let env_jobs () =
  match Sys.getenv_opt "JOBS" with
  | None -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> Some n
    | Some _ | None -> None)

let default_jobs () =
  match env_jobs () with
  | Some n -> n
  | None -> clamp_jobs (Domain.recommended_domain_count () - 1)

let configured_jobs () = Option.value (env_jobs ()) ~default:1

let jobs t = t.size

(* One worker's share of a batch: drain the own deque, then go stealing;
   a full empty round over every other deque means the batch has no
   queued work left (items never re-enter a deque), so the worker is
   done with it.  Whoever finishes the last item wakes the caller. *)
let work t (b : batch) w =
  Weblab_obs.Telemetry.set_worker w;
  let exec i =
    ignore (Atomic.fetch_and_add t.s_items.(w) 1);
    b.run i;
    if Atomic.fetch_and_add b.remaining (-1) = 1 then begin
      Mutex.lock t.lock;
      Condition.broadcast t.done_cond;
      Mutex.unlock t.lock
    end
  in
  let rec own () =
    match pop_bottom b.deques.(w) with
    | Some i ->
      exec i;
      own ()
    | None -> steal 1
  and steal k =
    if k < t.size then
      match steal_top b.deques.((w + k) mod t.size) with
      | Some i ->
        ignore (Atomic.fetch_and_add t.s_steals 1);
        exec i;
        own ()
      | None -> steal (k + 1)
  in
  own ()

(* A spawned worker parks between batches; epochs tell a fresh batch
   from the one it just drained.  Each worker is spawned with its fixed
   deque slot [w]. *)
let worker t w () =
  let rec loop last_epoch =
    Mutex.lock t.lock;
    let rec await () =
      if t.stopped then None
      else
        match t.current with
        | Some (e, b) when e <> last_epoch -> Some (e, b)
        | Some _ | None ->
          ignore (Atomic.fetch_and_add t.s_parks 1);
          Condition.wait t.work_cond t.lock;
          await ()
    in
    let next = await () in
    Mutex.unlock t.lock;
    match next with
    | None -> ()
    | Some (e, b) ->
      work t b w;
      loop e
  in
  loop 0

let create ?jobs () =
  let size =
    clamp_jobs (match jobs with Some j -> j | None -> configured_jobs ())
  in
  let t =
    { size; lock = Mutex.create (); work_cond = Condition.create ();
      done_cond = Condition.create (); current = None; epoch = 0;
      stopped = false; domains = [];
      s_steals = Atomic.make 0; s_parks = Atomic.make 0;
      s_batches = Atomic.make 0;
      s_items = Array.init size (fun _ -> Atomic.make 0) }
  in
  if size > 1 then
    t.domains <- List.init (size - 1) (fun i -> Domain.spawn (worker t (i + 1)));
  t

let shutdown t =
  if not t.stopped then begin
    Mutex.lock t.lock;
    t.stopped <- true;
    Condition.broadcast t.work_cond;
    Mutex.unlock t.lock;
    List.iter Domain.join t.domains;
    t.domains <- [];
    (* Sample this pool's lifetime stats into the telemetry snapshot, so
       [--profile] shows them without the caller holding the pool.
       Gauges, sampled at the shutdown boundary: Pool.stats is a
       point-in-time census of one pool, not a process-wide sum — in a
       daemon hosting many session pools the gauges read the most
       recently retired pool, while cumulative totals belong to the
       per-call counters the strategies already keep. *)
    let module T = Weblab_obs.Telemetry in
    let module M = Weblab_obs.Metrics in
    if T.enabled () then begin
      let s = stats t in
      M.set (M.gauge "pool.steals") s.steals;
      M.set (M.gauge "pool.parks") s.parks;
      M.set (M.gauge "pool.batches") s.batches;
      Array.iteri
        (fun w n -> M.set (M.gauge (Printf.sprintf "pool.items.w%d" w)) n)
        s.items_per_worker
    end
  end

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* Block distribution: worker w starts with the contiguous slice
   [w*n/size, (w+1)*n/size) — neighbours in the item array tend to share
   inputs, and a contiguous slice keeps the sequential fallback's access
   pattern. *)
let slices n size =
  Array.init size (fun w ->
      let lo = w * n / size and hi = (w + 1) * n / size in
      Array.init (hi - lo) (fun i -> lo + i))

let map t n f =
  if n = 0 then [||]
  else if t.size = 1 then begin
    ignore (Atomic.fetch_and_add t.s_batches 1);
    ignore (Atomic.fetch_and_add t.s_items.(0) n);
    (* The exact sequential path: no deques, no domains, index order
       ([Array.init] applies [f] from 0 up). *)
    Array.init n f
  end
  else begin
    ignore (Atomic.fetch_and_add t.s_batches 1);
    let results = Array.make n None in
    let error = Atomic.make None in
    let run i =
      match f i with
      | v -> results.(i) <- Some v
      | exception e ->
        (* First error wins; the batch still drains so the join below
           never deadlocks. *)
        ignore (Atomic.compare_and_set error None (Some e))
    in
    let b =
      { run;
        deques = Array.map deque_of_slice (slices n t.size);
        remaining = Atomic.make n }
    in
    Mutex.lock t.lock;
    t.epoch <- t.epoch + 1;
    t.current <- Some (t.epoch, b);
    Condition.broadcast t.work_cond;
    Mutex.unlock t.lock;
    (* The caller is worker 0. *)
    work t b 0;
    Mutex.lock t.lock;
    while Atomic.get b.remaining > 0 do
      Condition.wait t.done_cond t.lock
    done;
    t.current <- None;
    Mutex.unlock t.lock;
    (match Atomic.get error with Some e -> raise e | None -> ());
    Array.map
      (function
        | Some v -> v
        | None -> assert false (* every slot ran: remaining hit 0, no error *))
      results
  end

let iter t n f = ignore (map t n f)
