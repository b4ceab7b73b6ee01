(** The host's speed, sampled with a fixed reference computation.

    The benchmark runs on shared two-core hosts whose speed swings by up
    to 1.8 times over seconds to minutes: in one 165 s [corpus] run, the
    mean round over two-second windows ranged over 109-201 ms, and
    ten-run medians of the same code taken a quarter of an hour apart
    differed by 35%.  Every input slows by about the same factor.  So the
    benchmark runs reference slices between its timed rounds and reports
    its timings at a nominal host speed: each round's times scaled by
    [nominal_s] over the mean of the slices just before and after it.  In
    that run the round time over the reference slice time stayed within
    10.0-10.5 in every two-second window.

    A slice is fixed work shaped like a compile (a balanced map, a list
    sort, a hash table of strings) that uses no code of the repository.
    It runs in a helper process, the benchmark's own executable started
    with [--reference], so that neither the program nor the size of the
    benchmark's heap can change its time.  The benchmark waits while the
    helper runs a slice, so the slice has the host to itself. *)

(** The reference slice's time at the nominal speed (about its time on
    the two-core host the bounds were set on). *)
let nominal_s = 0.008

module Ints = Map.Make (Int)

let slice () =
  let m = ref Ints.empty in
  for i = 0 to 10_000 do
    m := Ints.add ((i * 7919) land 0xffff) i !m
  done;
  let l = List.sort compare (List.init 10_000 (fun i -> (i * 104729) land 0xfffff)) in
  let h = Hashtbl.create 1024 in
  for i = 0 to 10_000 do
    Hashtbl.replace h (i land 4095) (string_of_int i)
  done;
  ignore (Sys.opaque_identity (!m, l, h))

(** The helper's loop: for each line [n] on standard input, run [n]
    slices and print each one's duration; return at end of input. *)
let helper_loop () =
  try
    while true do
      let n = int_of_string (input_line stdin) in
      for _ = 1 to n do
        let t0 = Unix.gettimeofday () in
        slice ();
        Printf.printf "%.9f\n" (Unix.gettimeofday () -. t0)
      done;
      flush stdout
    done
  with End_of_file -> ()

type helper = { pid : int; requests : out_channel; replies : in_channel }

let helper : helper option ref = ref None

(** Durations of the slices run so far, in seconds. *)
let slices : float list ref = ref []

let start () =
  let req_r, req_w = Unix.pipe ~cloexec:true () and rep_r, rep_w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid = Unix.create_process exe [| exe; "--reference" |] req_r rep_w Unix.stderr in
  Unix.close req_r;
  Unix.close rep_w;
  helper := Some { pid; requests = Unix.out_channel_of_descr req_w; replies = Unix.in_channel_of_descr rep_r }

(** Close the helper's input and wait until it has ended. *)
let stop () =
  Option.iter
    (fun h ->
      helper := None;
      close_out_noerr h.requests;
      ignore (Unix.waitpid [] h.pid);
      close_in_noerr h.replies)
    !helper

(** Run [n] reference slices in the helper and record their durations. *)
let sample n =
  match !helper with
  | None -> invalid_arg "Host.sample: no helper"
  | Some h ->
      Printf.fprintf h.requests "%d\n%!" n;
      for _ = 1 to n do
        slices := float_of_string (input_line h.replies) :: !slices
      done

(** Run [n] slices; their mean, in seconds. *)
let sample_mean n =
  sample n;
  List.fold_left ( +. ) 0.0 (List.filteri (fun i _ -> i < n) !slices) /. float_of_int n

(** Mean reference slice of the run so far, in seconds. *)
let mean_slice_s () =
  match !slices with
  | [] -> nan
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
