// Fixture: errdrop flags discarded errors from calls into the guarded
// write-path packages (ledger/obs/store): bare statements, blank
// assignments, and go/defer statements; and a discarded Close on a file
// opened with os.Create or os.OpenFile. Handled errors, files opened
// for reading and audited best-effort sites stay clean.
package errdrop

import (
	"errors"
	"os"

	ledger "fixture/internal/ledger"
)

func drops(b *ledger.Book) {
	b.Append(1)       // want errdrop
	_ = b.Append(2)   // want errdrop
	defer b.Append(3) // want errdrop
	ledger.Flush()    // want errdrop
}

func dropsBlankOpen() *ledger.Book {
	bk, _ := ledger.Open() // want errdrop
	return bk
}

func handled(b *ledger.Book) error {
	if err := b.Append(1); err != nil {
		return err
	}
	bk, err := ledger.Open()
	if err != nil {
		return err
	}
	_ = ledger.Peek(bk) // no error result: clean
	return ledger.Flush()
}

func audited(b *ledger.Book) {
	_ = b.Append(9) //beelint:allow errdrop best-effort flush on shutdown
}

func writesDeferClose(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close() // want errdrop "f.Close on a file from os.Create/os.OpenFile returns an error that is discarded by defer"
	_, err = f.WriteString("x")
	return err
}

func writesDropClose(path string) {
	var out, err = os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return
	}
	if _, err := out.WriteString("x"); err != nil {
		out.Close() // want errdrop "out.Close on a file from os.Create/os.OpenFile returns an error that is discarded"
		return
	}
	_ = out.Close() // want errdrop "assigned to _"
}

func writesHandled(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	_, err = f.WriteString("x")
	return errors.Join(err, f.Close())
}

func reads(path string) error {
	r, err := os.Open(path)
	if err != nil {
		return err
	}
	defer r.Close() // read-only: nothing to flush
	return nil
}

func writesAudited(path string) {
	f, err := os.Create(path)
	if err != nil {
		return
	}
	f.Close() //beelint:allow errdrop empty marker file
}
