package server

// Cancel cancels a pending submission of the Go API by id, as a
// session's cancel verb cancels its own.
func (s *Server) Cancel(id uint64) error { return s.cancel(id, nil) }
