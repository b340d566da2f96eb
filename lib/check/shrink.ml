let minimize ~still_fails ops =
  (* Remove the i-th of [n] chunks. *)
  let without ops ~chunk ~i =
    let len = List.length ops in
    let lo = i * chunk and hi = min len ((i + 1) * chunk) in
    List.filteri (fun j _ -> j < lo || j >= hi) ops
  in
  let rec go ops n =
    let len = List.length ops in
    if len <= 1 then ops
    else begin
      let n = min n len in
      let chunk = max 1 ((len + n - 1) / n) in
      let n_chunks = (len + chunk - 1) / chunk in
      let rec try_remove i =
        if i >= n_chunks then None
        else
          let candidate = without ops ~chunk ~i in
          if candidate <> [] && still_fails candidate then Some candidate
          else try_remove (i + 1)
      in
      match try_remove 0 with
      | Some smaller -> go smaller (max 2 (n - 1))
      | None -> if chunk = 1 then ops else go ops (min len (2 * n))
    end
  in
  go ops 2
