package dap

import (
	"fmt"
	"strings"

	"mocha/internal/wire"
)

// TableLister is optionally implemented by access drivers that can
// enumerate the tables they serve, enabling zero-configuration
// registration of data sites.
type TableLister interface {
	Tables() ([]string, error)
}

// Tables implements TableLister over the embedded store.
func (d *StorageDriver) Tables() ([]string, error) { return d.Store.TableNames(), nil }

// handleProc services the DAP's procedural interface (section 3.2):
// requests outside the query abstraction, issued by the QPC on behalf
// of clients and administrators.
func (s *Server) handleProc(call wire.ProcCall) ([]string, error) {
	switch call.Op {
	case "ping":
		return []string{"pong"}, nil
	case "list-tables":
		lister, ok := s.cfg.Driver.(TableLister)
		if !ok {
			return nil, fmt.Errorf("dap: %s cannot enumerate tables", s.cfg.Site)
		}
		return lister.Tables()
	case "site-info":
		return []string{s.cfg.Site}, nil
	case "show-metrics":
		out := strings.Split(strings.TrimRight(s.cfg.Metrics.Render(), "\n"), "\n")
		if len(out) == 1 && out[0] == "" {
			return nil, nil
		}
		return out, nil
	}
	return nil, fmt.Errorf("dap: unknown procedural op %q", call.Op)
}
