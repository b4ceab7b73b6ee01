(** Statistics, process memory and the result line. *)

let now = Unix.gettimeofday

(** Nearest-rank percentile of an unsorted sample ([q] in 0..1). *)
let percentile q xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let median xs = percentile 0.5 xs
let sum xs = List.fold_left ( +. ) 0.0 xs

let geomean = function
  | [] -> nan
  | xs -> exp (sum (List.map log xs) /. float_of_int (List.length xs))

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(** Peak resident set ([VmHWM], MiB) of a live process, 0 if unreadable. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
                float_of_int kb /. 1024.0)
        | _ -> scan ()
      in
      let v = scan () in
      close_in ic;
      v

(** Direct children of a live process, from every thread's [children]
    list. *)
let children pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | tids ->
      Array.to_list tids
      |> List.concat_map (fun tid ->
             match open_in (Printf.sprintf "%s/%s/children" dir tid) with
             | exception Sys_error _ -> []
             | ic ->
                 let line = try input_line ic with End_of_file -> "" in
                 close_in ic;
                 String.split_on_char ' ' line
                 |> List.filter_map int_of_string_opt)
      |> List.sort_uniq compare

(** One metric of the result line. *)
type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(** The result line: the last line of standard output.  A value that is
    not a finite number prints as [null]. *)
let print_result ~correct ~attempted ~failed metrics =
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null" in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun x -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (num x.value) x.unit_)
          metrics))
