type edge = { u : int; v : int; weight : int }
