// Command tpchgen writes the generated TPC-H tables as pipe-separated
// .tbl files, dbgen style.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"olapmicro/internal/tpch"
)

func main() {
	sf := flag.Float64("sf", 0.01, "scale factor")
	out := flag.String("o", ".", "output directory")
	flag.Parse()

	d := tpch.Generate(*sf)
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	write := func(name string, rows int, row func(w *bufio.Writer, i int)) {
		f, err := os.Create(filepath.Join(*out, name))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		w := bufio.NewWriter(f)
		for i := 0; i < rows; i++ {
			row(w, i)
		}
		if err := w.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("wrote %s (%d rows)\n", name, rows)
	}

	write("nation.tbl", d.Nation.NationKey.Len(), func(w *bufio.Writer, i int) {
		fmt.Fprintf(w, "%d|%s|%d|\n", d.Nation.NationKey.At(i), d.Nation.Name[i], d.Nation.RegionKey.At(i))
	})
	write("region.tbl", d.Region.RegionKey.Len(), func(w *bufio.Writer, i int) {
		fmt.Fprintf(w, "%d|%s|\n", d.Region.RegionKey.At(i), d.Region.Name[i])
	})
	write("supplier.tbl", d.Supplier.SuppKey.Len(), func(w *bufio.Writer, i int) {
		fmt.Fprintf(w, "%d|%s|%d|%d.%02d|\n", d.Supplier.SuppKey.At(i), d.Supplier.Name[i],
			d.Supplier.NationKey.At(i), d.Supplier.AcctBal.At(i)/100, abs(d.Supplier.AcctBal.At(i)%100))
	})
	write("customer.tbl", d.Customer.CustKey.Len(), func(w *bufio.Writer, i int) {
		fmt.Fprintf(w, "%d|%s|%d|\n", d.Customer.CustKey.At(i), d.Customer.Name[i], d.Customer.NationKey.At(i))
	})
	write("part.tbl", d.Part.PartKey.Len(), func(w *bufio.Writer, i int) {
		fmt.Fprintf(w, "%d|%s|%d.%02d|\n", d.Part.PartKey.At(i), d.Part.Name[i],
			d.Part.RetailPrice.At(i)/100, d.Part.RetailPrice.At(i)%100)
	})
	write("partsupp.tbl", d.PartSupp.PartKey.Len(), func(w *bufio.Writer, i int) {
		fmt.Fprintf(w, "%d|%d|%d|%d.%02d|\n", d.PartSupp.PartKey.At(i), d.PartSupp.SuppKey.At(i),
			d.PartSupp.AvailQty.At(i), d.PartSupp.SupplyCost.At(i)/100, d.PartSupp.SupplyCost.At(i)%100)
	})
	write("orders.tbl", d.Orders.OrderKey.Len(), func(w *bufio.Writer, i int) {
		fmt.Fprintf(w, "%d|%d|%d|%d.%02d|\n", d.Orders.OrderKey.At(i), d.Orders.CustKey.At(i),
			d.Orders.OrderDate.At(i), d.Orders.TotalPrice.At(i)/100, d.Orders.TotalPrice.At(i)%100)
	})
	l := &d.Lineitem
	write("lineitem.tbl", l.Rows(), func(w *bufio.Writer, i int) {
		fmt.Fprintf(w, "%d|%d|%d|%d|%d.%02d|0.%02d|0.%02d|%c|%c|%d|%d|%d|\n",
			l.OrderKey.At(i), l.PartKey.At(i), l.SuppKey.At(i), l.Quantity.At(i),
			l.ExtendedPrice.At(i)/100, l.ExtendedPrice.At(i)%100,
			l.Discount.At(i), l.Tax.At(i), l.ReturnFlag.At(i), l.LineStatus.At(i),
			l.ShipDate.At(i), l.CommitDate.At(i), l.ReceiptDate.At(i))
	})
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
