(* The daemon as a child process, and what /proc says about it and the
   host. *)

type daemon = {
  pid : int;
  port : int;
  out : in_channel;  (** the daemon's stdout, read up to its readiness line *)
  mutable alive : bool;
}

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> In_channel.input_all ic)

(* Spawn [serve] and block until it prints its readiness line; returns
   the daemon and the seconds from spawn to readiness. *)
let spawn ?(profile = false) ~serve ~log ?data_dir () =
  let args =
    Array.of_list
      ([ serve; "--port"; "0" ]
      @ (if profile then [ "--profile" ] else [])
      @ match data_dir with Some d -> [ "--data-dir"; d ] | None -> [])
  in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err = Unix.openfile log [ O_WRONLY; O_CREAT; O_APPEND; O_CLOEXEC ] 0o644 in
  let t0 = Unix.gettimeofday () in
  let pid = Unix.create_process serve args Unix.stdin out_w err in
  Unix.close out_w;
  Unix.close err;
  let out = Unix.in_channel_of_descr out_r in
  let prefix = "weblab-serve listening on " in
  let rec ready () =
    match input_line out with
    | l when String.starts_with ~prefix l ->
      let addr = String.sub l (String.length prefix) (String.length l - String.length prefix) in
      int_of_string (List.nth (String.split_on_char ':' addr) 1)
    | _ -> ready ()
    | exception End_of_file -> failwith ("daemon exited before readiness; see " ^ log)
  in
  let port = ready () in
  ({ pid; port; out; alive = true }, Unix.gettimeofday () -. t0)

(* SIGKILL, then reap.  The daemon is never asked to shut down politely:
   an idle daemon ignores SIGTERM (see NOTES.md). *)
let kill d =
  if d.alive then begin
    d.alive <- false;
    (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] d.pid);
    close_in_noerr d.out
  end

let clk_tck = 100.

(* utime + stime of a live process, in seconds. *)
let cpu_s pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  (* fields after the parenthesised command name; utime and stime are
     fields 14 and 15 of the whole line *)
  let rest = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  (float_of_string f.(11) +. float_of_string f.(12)) /. clk_tck

(* VmHWM: the process's peak resident set, in MB. *)
let peak_rss_mb pid =
  let s = read_file (Printf.sprintf "/proc/%d/status" pid) in
  let line =
    List.find (String.starts_with ~prefix:"VmHWM:") (String.split_on_char '\n' s)
  in
  let kb =
    List.filter (fun w -> w <> "") (String.split_on_char ' ' line) |> fun ws ->
    float_of_string (List.nth ws 1)
  in
  kb /. 1024.

(* Host steal time so far, in seconds (all CPUs). *)
let steal_s () =
  let s = read_file "/proc/stat" in
  let cpu = List.hd (String.split_on_char '\n' s) in
  let f = List.filter (fun w -> w <> "") (String.split_on_char ' ' cpu) in
  float_of_string (List.nth f 8) /. clk_tck

let cpus () = Domain.recommended_domain_count ()
