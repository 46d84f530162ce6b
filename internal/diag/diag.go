// Package diag provides the typed, structured error the hostile-input
// hardening layer standardizes on. Every decode path that used to panic on
// malformed input — wire codecs, config parsers, AFT/gNMI ingestion — now
// returns a *diag.Error carrying enough context to act on per device:
// severity (does this kill one router or just warrant a warning?), the
// subsystem that rejected the input, the device it belongs to, the source
// path (config section, file, or gNMI path), and the offset into the input
// (byte offset for wire messages, line number for text sources).
//
// Internal invariant violations (programmer errors: nil clocks, simulator
// misuse) keep panicking; only input-driven failures flow through diag.
package diag

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Severity classifies how a diagnostic degrades the pipeline.
type Severity uint8

// Severities, ordered: comparisons like sev >= SevError are meaningful.
const (
	// SevInfo is advisory only.
	SevInfo Severity = iota
	// SevWarning flags input that is accepted but suspicious (e.g. a BGP
	// neighbor address no emulated device owns).
	SevWarning
	// SevError marks input that is rejected, degrading the result for the
	// device it belongs to without ending the run.
	SevError
	// SevFatal marks input that makes the owning device unusable — the
	// quarantine trigger (corrupted config, undecodable AFT).
	SevFatal
)

// String names the severity.
func (s Severity) String() string {
	switch s {
	case SevInfo:
		return "info"
	case SevWarning:
		return "warning"
	case SevError:
		return "error"
	case SevFatal:
		return "fatal"
	default:
		return fmt.Sprintf("severity(%d)", uint8(s))
	}
}

// Error is one structured diagnostic. It implements error and wraps an
// optional cause, so errors.Is/As traverse it.
type Error struct {
	// Sev is the diagnostic's severity.
	Sev Severity
	// Source is the subsystem that produced it ("bgp", "isis", "mpls",
	// "config", "aft", "gnmi", "routing", "topology", "lint").
	Source string
	// Device is the router the offending input belongs to; empty when the
	// input is not attributable to one device.
	Device string
	// Path locates the input source: a config section, file name, or gNMI
	// path. Empty when the input is a raw wire message.
	Path string
	// Offset is the byte offset into a wire message or the line number of a
	// text source; -1 when unknown.
	Offset int
	// Msg describes the defect.
	Msg string
	// Err is the wrapped cause, when the diagnostic annotates a lower-level
	// error.
	Err error
}

// Error renders "severity source device path:offset: msg: cause", omitting
// empty fields.
func (e *Error) Error() string {
	var b strings.Builder
	b.WriteString(e.Sev.String())
	b.WriteByte(' ')
	b.WriteString(e.Source)
	if e.Device != "" {
		b.WriteByte(' ')
		b.WriteString(e.Device)
	}
	if e.Path != "" {
		b.WriteByte(' ')
		b.WriteString(e.Path)
	}
	if e.Offset >= 0 {
		fmt.Fprintf(&b, ":%d", e.Offset)
	}
	if e.Msg != "" {
		b.WriteString(": ")
		b.WriteString(e.Msg)
	}
	if e.Err != nil {
		b.WriteString(": ")
		b.WriteString(e.Err.Error())
	}
	return b.String()
}

// Unwrap exposes the cause to errors.Is/As.
func (e *Error) Unwrap() error { return e.Err }

// New builds a diagnostic with no offset.
func New(sev Severity, source, device, msg string) *Error {
	return &Error{Sev: sev, Source: source, Device: device, Offset: -1, Msg: msg}
}

// Newf is New with formatting.
func Newf(sev Severity, source, device, format string, args ...any) *Error {
	return New(sev, source, device, fmt.Sprintf(format, args...))
}

// Wrap annotates a cause with diag context. A nil cause yields nil. If the
// cause is already a *Error, its fields win where set — wrapping at a higher
// layer must not erase the precise location recorded where the input was
// rejected.
func Wrap(err error, sev Severity, source, device string) *Error {
	if err == nil {
		return nil
	}
	var d *Error
	if errors.As(err, &d) {
		out := *d
		if out.Device == "" {
			out.Device = device
		}
		if out.Sev < sev {
			out.Sev = sev
		}
		return &out
	}
	return &Error{Sev: sev, Source: source, Device: device, Offset: -1, Err: err}
}

// Decodef builds a SevError decode diagnostic at a byte offset into a wire
// message.
func Decodef(source string, offset int, format string, args ...any) *Error {
	return &Error{Sev: SevError, Source: source, Offset: offset, Msg: fmt.Sprintf(format, args...)}
}

// WithPath returns a copy locating the diagnostic at a source path.
func (e *Error) WithPath(p string) *Error {
	out := *e
	out.Path = p
	return &out
}

// WithOffset returns a copy carrying an input offset (byte or line).
func (e *Error) WithOffset(off int) *Error {
	out := *e
	out.Offset = off
	return &out
}

// SeverityOf extracts the severity from an error chain; non-diag errors
// default to SevError.
func SeverityOf(err error) Severity {
	var d *Error
	if errors.As(err, &d) {
		return d.Sev
	}
	return SevError
}

// IsFatal reports whether the error chain carries a SevFatal diagnostic.
func IsFatal(err error) bool { return SeverityOf(err) == SevFatal }

// List is a collection of diagnostics (a lint report). It implements error.
type List []*Error

// Error joins the diagnostics, one per line.
func (l List) Error() string {
	parts := make([]string, len(l))
	for i, d := range l {
		parts[i] = d.Error()
	}
	return strings.Join(parts, "\n")
}

// Max returns the highest severity present (SevInfo when empty).
func (l List) Max() Severity {
	var max Severity
	for _, d := range l {
		if d.Sev > max {
			max = d.Sev
		}
	}
	return max
}

// Sort orders the list deterministically: severity descending, then device,
// source, path, offset, message.
func (l List) Sort() {
	sort.SliceStable(l, func(i, j int) bool {
		a, b := l[i], l[j]
		if a.Sev != b.Sev {
			return a.Sev > b.Sev
		}
		if a.Device != b.Device {
			return a.Device < b.Device
		}
		if a.Source != b.Source {
			return a.Source < b.Source
		}
		if a.Path != b.Path {
			return a.Path < b.Path
		}
		if a.Offset != b.Offset {
			return a.Offset < b.Offset
		}
		return a.Msg < b.Msg
	})
}
